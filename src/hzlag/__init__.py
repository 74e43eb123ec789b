"""hzlag: exact moment tables and cross-verification suites for Laguerre
and Gaussian random-matrix ensembles.

Three independent computation routes — contour-integral residues, computed
in closed form as integer Laurent polynomials in w = u - 1, genus-graded
recursions, and brute-force Wick pairing enumeration — compute the same
quantities and are checked against each other with exact equality
throughout.
"""

__version__ = "0.1.0"

from .exact import (
    BiSeries,
    PoleAtExpansionPoint,
    Rat,
    RationalFunction,
    TruncSeries,
    UniPoly,
    WLaurent,
    binom_series,
    gen_binom,
    rat_str,
    rat_str_explicit,
    series_of_rational,
)
from .recursions import (
    ConstraintError,
    GaussBTable,
    HalfGenusTable,
    IntegralityError,
    LagCTable,
    VTable,
    c1_closed_form,
    do_norbury_table,
    gauss_hz_table,
    glag_k1_table,
    glag_w1_ode_check,
    laguerre_ode_check,
    vk_table,
)
from .reports import CheckRecord, RunReport, record
from .residues import (
    FabValue,
    TwoPointValue,
    exp_mean_moments,
    exp_mean_series,
    fab,
    fab_generalized,
    two_point_series,
    verify_identity,
    verify_ode,
    verify_t1,
    weighted_residue,
)
from .spectral import (
    NonCancellationError,
    SBasisElement,
    VBasisElement,
    a_to_C,
    consistency_identity_check,
    s_series,
    vk_series,
    w11_check,
    w30_planar_check,
)
from .wick import (
    DegreeLimitError,
    GradingError,
    MomentPoly,
    complex_wishart_moment,
    connected_moments,
    genus_extract,
    gue_moment,
    parse_dimension,
)
