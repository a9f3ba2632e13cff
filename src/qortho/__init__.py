"""Certified-precision evaluation of three q-orthogonal polynomial families
and numerical verification of their discrete orthogonality relations.

The package evaluates the q-inverse Hermite polynomials h_n, the discrete
q-ultraspherical polynomials C_n^(s) and their duals D_n^(s) at arbitrary
working precision, builds Gram matrices under the families' discrete
orthogonality measures with certified truncation windows, and runs an
identity suite covering the connection formulas, recurrence chains, product
identities and measure-equivalence relations the families satisfy.
"""
from .families import (FamilyKind, FamilySpec, MuPoint, discrete_ultra, dual_ultra,
                       dual_ultra_coeff_rows, dual_ultra_coeffs, dual_ultra_series,
                       dual_ultra_table, dual_ultra_tables, even_hermite_factor, evaluate,
                       mu_point, qinv_hermite, qinv_hermite_coeff_rows,
                       qinv_hermite_coeffs, qinv_hermite_series,
                       qinv_hermite_series_tables,
                       qinv_hermite_table, qinv_hermite_tables)
from .identities import (SUITE_IDS, IdentityReport, check_even_connection,
                         check_half_to_full_lattice,
                         check_inverted_parameter_recurrence,
                         check_odd_connection, check_product_chain,
                         check_recurrence_chains, run_suite)
from .kernel import (DEFAULT_CONTEXT, KernelError, PoleError,
                     PrecisionContext, QReal, TruncationFailure, as_qparam,
                     basic_hypergeometric, qpochhammer, qpochhammer_inf,
                     to_decimal)
from .measures import (DiscreteMeasure, GramReport, MeasureKind,
                       NormalizationAdjudication, SignViolation,
                       adjudicate_normalization, dual_base, dual_q_extremal,
                       dual_qinv_extremal, expected_diagonal, gram_matrix,
                       hermite_extremal, lattice_normalization)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONTEXT",
    "DiscreteMeasure",
    "FamilyKind",
    "FamilySpec",
    "GramReport",
    "IdentityReport",
    "KernelError",
    "MeasureKind",
    "MuPoint",
    "NormalizationAdjudication",
    "PoleError",
    "PrecisionContext",
    "QReal",
    "SUITE_IDS",
    "SignViolation",
    "TruncationFailure",
    "adjudicate_normalization",
    "as_qparam",
    "basic_hypergeometric",
    "check_even_connection",
    "check_half_to_full_lattice",
    "check_inverted_parameter_recurrence",
    "check_odd_connection",
    "check_product_chain",
    "check_recurrence_chains",
    "discrete_ultra",
    "dual_base",
    "dual_q_extremal",
    "dual_qinv_extremal",
    "dual_ultra",
    "dual_ultra_coeff_rows",
    "dual_ultra_coeffs",
    "dual_ultra_series",
    "dual_ultra_table",
    "dual_ultra_tables",
    "even_hermite_factor",
    "evaluate",
    "expected_diagonal",
    "gram_matrix",
    "hermite_extremal",
    "lattice_normalization",
    "mu_point",
    "qinv_hermite",
    "qinv_hermite_coeff_rows",
    "qinv_hermite_coeffs",
    "qinv_hermite_series",
    "qinv_hermite_series_tables",
    "qinv_hermite_table",
    "qinv_hermite_tables",
    "qpochhammer",
    "qpochhammer_inf",
    "run_suite",
    "to_decimal",
]
