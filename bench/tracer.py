"""Per-layer spans and counters, installed from outside the program.

The tracer wraps public functions at the boundaries of the ``bpadams``
modules.  Every module is imported first; each traced function object is then
wrapped exactly once, and that one wrapper is bound under every module
attribute that refers to the function (``solve`` is both
``bpadams.lattice.solve`` and ``bpadams.centre.solve``), so a call is never
recorded twice.  Methods are wrapped on their class.  ``arith`` is called too
finely to wrap cheaply; its cost shows in the self time of its callers.

A span is (name, start, end, parent), kept in flat arrays in memory.  A span's
self time is its duration minus the durations of its direct children.
Counters that need the call's arguments or result are added after the span
has closed.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from pathlib import Path

MODULES = ("arith", "polyring", "fgl", "hopf", "adamsk", "lattice", "centre", "cli")
ROOT_SPAN = "bench.pass"


def _mul_terms(args, out, counters):
    counters["polyring.mul.terms_out"] += len(getattr(out, "terms", ()))


def _solve_rows(args, out, counters):
    rows = args[0].rows
    counters["lattice.solve.rows_in"] += len(rows)
    bits = max((x.denominator.bit_length() for row in rows for x in row), default=0)
    counters["lattice.solve.max_den_bits"] = max(counters["lattice.solve.max_den_bits"], bits)


def _sample_rows(args, out, counters):
    counters["centre.sample_rows"] += len(out)


# (span name, module, attribute path, counter hook): the public functions
# the workloads reach, plus the right-unit tables.  Span names are
# <module>.<function>; a class's __init__ is named after the class.
TRACED = [
    ("polyring.mul", "polyring", "GradedPoly.__mul__", _mul_terms),
    ("polyring.substitute", "polyring", "GradedPoly.substitute", None),
    ("fgl.BPContext", "fgl", "BPContext.__init__", None),
    ("hopf.right_unit_tables", "hopf", "_RightUnitData.__init__", None),
    ("hopf.right_unit_of_l_poly", "hopf", "right_unit_of_l_poly", None),
    ("hopf.right_unit_v_monomial", "hopf", "right_unit_v_monomial", None),
    ("hopf.to_right_unit_basis", "hopf", "to_right_unit_basis", None),
    ("hopf.diagonal_transform", "hopf", "diagonal_transform", None),
    ("hopf.v1_functional", "hopf", "v1_functional", None),
    ("hopf.special_element", "hopf", "special_element", None),
    ("adamsk.adams_family", "adamsk", "adams_family", None),
    ("adamsk.family_action", "adamsk", "family_action", None),
    ("adamsk.expand_in_family", "adamsk", "expand_in_family", None),
    ("adamsk.C_vector", "adamsk", "C_vector", None),
    ("adamsk.check_g_congruences", "adamsk", "check_g_congruences", None),
    ("adamsk.basis_integrality_rows", "adamsk", "basis_integrality_rows", None),
    ("adamsk.ku_congruence_system", "adamsk", "ku_congruence_system", None),
    ("adamsk.binomial_mu_congruence", "adamsk", "binomial_mu_congruence", None),
    ("lattice.triangularize", "lattice", "triangularize", None),
    ("lattice.solve", "lattice", "solve", _solve_rows),
    ("lattice.lattice_leq", "lattice", "lattice_leq", None),
    ("lattice.lattice_eq", "lattice", "lattice_eq", None),
    ("lattice.sandwich_check", "lattice", "sandwich_check", None),
    ("centre.summand_rows", "centre", "summand_rows", None),
    ("centre.sampled_integrality_rows", "centre", "sampled_integrality_rows", _sample_rows),
    ("centre.verify_centre_bp", "centre", "verify_centre_bp", None),
    ("centre.interleaved_g_report", "centre", "interleaved_g_report", None),
    ("cli.main", "cli", "main", None),
]

COUNTERS = ("polyring.mul.terms_out", "lattice.solve.rows_in", "lattice.solve.max_den_bits",
            "centre.sample_rows", "centre.inclusion.dots")


class Tracer:
    """Spans and counters, kept per pass in :attr:`passes`; :meth:`install`
    and :meth:`uninstall` switch the wrappers in and out between passes."""

    def __init__(self, traced=TRACED):
        self.span_names = [ROOT_SPAN] + [name for name, *_ in traced]
        self._bindings: list[tuple[object, str, object, object]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.passes: list[tuple] = []
        self._reset()
        mods = {m: importlib.import_module(f"bpadams.{m}") for m in MODULES}
        namespaces = [importlib.import_module("bpadams")] + list(mods.values())
        for sid, (name, module, path, hook) in enumerate(traced, start=1):
            owner_path, _, attr = path.rpartition(".")
            owner = mods[module]
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(sid, original, hook)
            if owner_path:  # a method: bound once, on its class
                self._bindings.append((owner, attr, original, wrapper))
                continue
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if value is original:
                        self._bindings.append((ns, key, original, wrapper))
        # centre.inclusion.dots counts the exact dot products of the inclusion
        # loop: one val_p call each.  Only centre's binding of val_p is
        # replaced, so calls from other modules are not counted.
        val_p = mods["centre"].val_p
        counters = self.counters

        def counted_val_p(p, x):
            counters["centre.inclusion.dots"] += 1
            return val_p(p, x)

        self._bindings.append((mods["centre"], "val_p", val_p, counted_val_p))

    def _reset(self) -> None:
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        for key in self.counters:  # in place: hooks hold this dict
            self.counters[key] = 0

    def _wrap(self, sid: int, fn, hook):
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, stack = tracer.names, tracer.stack
            i = len(names)
            names.append(sid)
            tracer.parents.append(stack[-1])
            tracer.starts.append(0)
            tracer.ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.starts[i] = t0
                tracer.ends[i] = t1
            if hook is not None:
                hook(args, out, tracer.counters)
            return out

        return traced

    # -- switching and passes ------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def begin_pass(self) -> None:
        """Clear spans and counters and open the root span of a pass."""
        self._reset()
        self.names.append(0)
        self.parents.append(-1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.stack = [-1, 0]

    def end_pass(self) -> None:
        """Close the root span and keep the pass's spans and counters."""
        self.ends[0] = time.perf_counter_ns()
        self.stack = [-1]
        self.passes.append((self.names, self.parents, self.starts, self.ends,
                            dict(self.counters)))

    # -- results -------------------------------------------------------------

    def aggregate(self, k: int) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name of pass k, and the same
        summed per module (the part of the name before the first dot)."""
        names, parents, starts, ends, _ = self.passes[k]
        child = [0] * len(names)
        for i in range(1, len(names)):
            child[parents[i]] += ends[i] - starts[i]
        agg: dict[str, dict[str, float]] = {}
        for i, sid in enumerate(names):
            dur = ends[i] - starts[i]
            name = self.span_names[sid]
            for key in (name, name.split(".")[0]):
                a = agg.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                a["calls"] += 1
                a["total_s"] += dur / 1e9
                a["self_s"] += (dur - child[i]) / 1e9
        return agg

    def write_spans(self, path: Path) -> None:
        """One line per span of every pass: pass, id, parent, request (the
        child of the root the span descends from; a CLI request in cli-mix),
        name, and start and end in ns from the start of the pass."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\tid\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for k, (names, parents, starts, ends, _) in enumerate(self.passes):
                t0 = starts[0]
                request = [0] * len(names)
                for i, sid in enumerate(names):
                    parent = parents[i]
                    request[i] = i if parent <= 0 else request[parent]
                    fh.write(f"{k}\t{i}\t{parent}\t{request[i]}\t{self.span_names[sid]}\t"
                             f"{starts[i] - t0}\t{ends[i] - t0}\n")


def call_cost_ns(repeats: int = 5, calls: int = 20000) -> float:
    """Median extra cost of one traced call over a plain call, in ns,
    measured on a function that does nothing."""

    def noop():
        return None

    probe = Tracer(traced=[])
    wrapped = probe._wrap(0, noop, None)
    costs = []
    for _ in range(repeats):
        probe.begin_pass()
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
