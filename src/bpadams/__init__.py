"""Exact computation in the degree-zero stable operation rings of
p-local K-theory and Brown-Peterson cohomology.

The package computes, with exact rational arithmetic throughout:

* the triangular Adams-operation families (phi, Phi, phihat, zeta), their
  diagonal actions and unique expansions,
* Gaussian-polynomial congruence systems and their solution lattices over
  the p-local integers,
* the p-typical formal group law (Araki generators), the Hopf-algebroid
  right unit, and the symbolic evaluation of diagonal operations,
* the inductive special congruence elements d_n, and
* a desk-scale verification that the diagonal (= central) operations
  coincide with the Adams subalgebra.

Names resolve on first use (PEP 562): ``import bpadams`` loads no
submodule, and ``bpadams.<name>`` imports the one submodule that defines
``name`` (with the submodules it imports itself) and returns the
attribute as that submodule holds it at the time of the access.  The
package stores none of these names, so a name rebound on its submodule
is what ``bpadams.<name>`` returns.  ``bpadams.arith`` and the other
submodules resolve the same way.  Only a caller that uses a part of the
package loads less: ``bpadams.cli`` and ``bpadams.centre`` import nearly
every submodule themselves.
"""

__version__ = "0.1.0"

# the public names, by the submodule that defines each
_EXPORTS = {
    "arith": ("INFINITY", "delta_p", "find_q", "gamma_p", "gaussian",
              "gaussian_poly", "is_p_local_int", "nu_p", "val_p"),
    "polyring": ("GeneratorTable", "GradedPoly", "PolyError"),
    "fgl": ("BPContext",),
    "hopf": ("ConstructionError", "DiagonalAction", "MuLinear", "SpecialElement",
             "diagonal_transform", "right_unit_log", "right_unit_v_monomial",
             "special_element", "t_recursion_check", "to_right_unit_basis", "v1_functional"),
    "adamsk": ("AdamsFamily", "CongruenceVector", "C_vector", "adams_family",
               "binomial_mu_congruence", "check_g_congruences", "expand_in_family",
               "family_action", "ku_congruence_system", "Phi_in_phi"),
    "lattice": ("CongruenceSystem", "LatticeError", "SolutionLattice", "extend_lattice",
                "lattice_eq", "lattice_leq", "sandwich_check", "solve", "triangularize"),
    "centre": ("bp_sample_scan", "verify_centre_bp"),
}
_SUBMODULES = {*_EXPORTS, "kernel", "walk"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = __import__(f"{__name__}.{module}", fromlist=("_",))  # the leaf module
    return found if module == name else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
