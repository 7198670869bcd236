"""The package namespace: each public name resolves on first use to the
object its submodule holds, and loads that submodule alone.  That a bare
``import bpadams`` loads no submodule is checked by
``tests/startup_imports.py``, whose probe these tests share."""

import pytest

import bpadams
from startup_imports import submodules_loaded

# the 45 names the package exports, by the submodule that defines each
EXPORTS = {
    "arith": ["INFINITY", "delta_p", "find_q", "gamma_p", "gaussian",
              "gaussian_poly", "is_p_local_int", "nu_p", "val_p"],
    "polyring": ["GeneratorTable", "GradedPoly", "PolyError"],
    "fgl": ["BPContext"],
    "hopf": ["ConstructionError", "DiagonalAction", "MuLinear", "SpecialElement",
             "diagonal_transform", "right_unit_log", "right_unit_v_monomial", "special_element",
             "t_recursion_check", "to_right_unit_basis", "v1_functional"],
    "adamsk": ["AdamsFamily", "CongruenceVector", "C_vector", "adams_family",
               "binomial_mu_congruence", "check_g_congruences", "expand_in_family",
               "family_action", "ku_congruence_system", "Phi_in_phi"],
    "lattice": ["CongruenceSystem", "LatticeError", "SolutionLattice", "extend_lattice",
                "lattice_eq", "lattice_leq", "sandwich_check", "solve", "triangularize"],
    "centre": ["bp_sample_scan", "verify_centre_bp"],
}
SUBMODULES = ["arith", "polyring", "fgl", "kernel", "hopf", "adamsk", "lattice", "walk",
              "centre"]

# the statements the verify workloads time as set-up after ``import bpadams``
VERIFY_SETUP = """\
W = bpadams.delta_p(5, 24)
ctx = bpadams.BPContext(5, W)
bpadams.to_right_unit_basis(ctx, bpadams.GradedPoly.gen(ctx.lt_table, W, 't1'))
"""


def test_a_name_loads_its_submodule_alone():
    assert submodules_loaded("bpadams.delta_p\n") == ["bpadams.arith"]


def test_verify_setup_loads_five_submodules():
    assert submodules_loaded(VERIFY_SETUP) == ["bpadams.arith", "bpadams.fgl", "bpadams.hopf",
                                               "bpadams.kernel", "bpadams.polyring"]


def test_the_integer_kernel_loads_no_other_submodule():
    # kernel imports nothing from the package: its callers raise their own
    # errors on what it returns
    assert submodules_loaded("import bpadams.kernel\n") == ["bpadams.kernel"]


def test_every_submodule_resolves_after_a_bare_import():
    statements = "".join(f"assert bpadams.{m} is sys.modules['bpadams.{m}']\n"
                         for m in SUBMODULES)
    assert submodules_loaded(statements) == sorted(f"bpadams.{m}" for m in SUBMODULES)


def test_all_is_the_exported_names():
    assert sorted(bpadams.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(bpadams.__all__) == len(set(bpadams.__all__)) == 45


@pytest.mark.parametrize("module", list(EXPORTS))
def test_each_name_is_the_object_its_submodule_defines(module):
    sub = getattr(bpadams, module)
    for name in EXPORTS[module]:
        assert getattr(bpadams, name) is getattr(sub, name), name


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(bpadams)
    assert set(bpadams.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from bpadams import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bpadams.__all__)
    assert namespace["verify_centre_bp"] is bpadams.centre.verify_centre_bp


def test_an_unknown_name_raises_attribute_error():
    # a name never defined, and names the package no longer exports
    for name in ("nope", "Prime", "Rational", "is_p_local_unit", "TruncatedSeries",
                 "adams_on_coeff", "adams_log_transform_check", "bp_log", "formal_sum",
                 "generic_log", "log_exp_series", "verify_basis_injections"):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(bpadams, name)
    assert not hasattr(bpadams, "cli_main")


def test_a_name_rebound_on_its_submodule_is_what_the_package_returns(monkeypatch):
    original = bpadams.lattice.solve
    assert bpadams.solve is original

    def fake(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(bpadams.lattice, "solve", fake)
    assert bpadams.solve is fake
    monkeypatch.undo()
    assert bpadams.solve is original
    assert "solve" not in vars(bpadams)
