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
"""

from .arith import (INFINITY, Prime, Rational, delta_p, find_q, gamma_p, gaussian,
                    gaussian_poly, is_p_local_int, is_p_local_unit, nu_p, val_p)
from .polyring import GeneratorTable, GradedPoly, PolyError
from .fgl import (BPContext, TruncatedSeries, adams_on_coeff, adams_log_transform_check,
                  bp_log, formal_sum, generic_log, log_exp_series)
from .hopf import (ConstructionError, DiagonalAction, MuLinear, SpecialElement,
                   diagonal_transform, right_unit_log, right_unit_v_monomial,
                   special_element, t_recursion_check, to_right_unit_basis,
                   v1_functional)
from .adamsk import (AdamsFamily, CongruenceVector, C_vector, adams_family,
                     binomial_mu_congruence, check_g_congruences, expand_in_family,
                     family_action, ku_congruence_system, Phi_in_phi)
from .lattice import (CongruenceSystem, LatticeError, SolutionLattice, extend_lattice,
                      lattice_eq, lattice_leq, sandwich_check, solve, triangularize)
from .centre import bp_sample_scan, verify_basis_injections, verify_centre_bp

__version__ = "0.1.0"
