"""Exact computational algebra for equivariant K-theory localizations:
Burnside rings and tables of marks, representation rings of finite abelian
groups, Adams operations and Euler classes, Smith normal form over Z,
Mackey/Green functor assembly, and cyclic-tower norms."""

from .burnside import BurnsideRing
from .exact import (
    Cyclotomic,
    IntMatrix,
    SmithDecomposition,
    cyclotomic_polynomial,
    kernel_lattice,
    mult_matrix_determinant,
    reduce_root_of_unity_sum,
    smith_normal_form,
)
from .fiber import (
    adams_minus_one,
    default_ell,
    determinant_mod_ell_check,
    kernel_equals_AmodJ,
    pi1_level,
)
from .geomfp import (
    bott_character,
    verify_CqxCq_vanishing,
    verify_adams_on_bott,
    verify_euler_localization,
    verify_q_unit_identity,
    verify_regular_factorization,
)
from .groups import AbelianGroup, Subgroup, abelian_group, parse_group
from .mackey import (
    GreenFunctor,
    MackeyFunctor,
    a_mod_j_mackey,
    assemble_pi0,
    assemble_pi1_c3,
    burnside_mackey,
    idempotent_splitting_check,
    linearization_check,
    ru_mackey,
    v_h,
)
from .reprings import RURing, perm_rep, rational_rep_lattices
from .tambara import CyclicTower, derive_norm_on_x, norm_on_monomial, restriction_rule_check

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BurnsideRing",
    "CyclicTower",
    "Cyclotomic",
    "GreenFunctor",
    "IntMatrix",
    "MackeyFunctor",
    "RURing",
    "SmithDecomposition",
    "Subgroup",
    "a_mod_j_mackey",
    "abelian_group",
    "adams_minus_one",
    "assemble_pi0",
    "assemble_pi1_c3",
    "bott_character",
    "burnside_mackey",
    "cyclotomic_polynomial",
    "default_ell",
    "derive_norm_on_x",
    "determinant_mod_ell_check",
    "idempotent_splitting_check",
    "kernel_equals_AmodJ",
    "kernel_lattice",
    "linearization_check",
    "mult_matrix_determinant",
    "norm_on_monomial",
    "parse_group",
    "perm_rep",
    "pi1_level",
    "rational_rep_lattices",
    "reduce_root_of_unity_sum",
    "restriction_rule_check",
    "ru_mackey",
    "smith_normal_form",
    "v_h",
    "verify_CqxCq_vanishing",
    "verify_adams_on_bott",
    "verify_euler_localization",
    "verify_q_unit_identity",
    "verify_regular_factorization",
]
