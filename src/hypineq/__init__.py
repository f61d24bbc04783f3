"""Rearrangement machinery and sharp inequality verification on
hyperbolic space.

Everything happens on the measure line: radial functions are reduced to
non-increasing profiles of superlevel-set volume, and every norm or
deficit is a weighted one-dimensional integral of such a profile.
"""

from .constants import (
    Params,
    boundary_exponent,
    gn_constant,
    gn_theta,
    in_comparison_range,
    in_poincare_range,
    linfty_constant,
    log_sobolev_constant,
    morrey_constant,
    sobolev_constant,
    unit_ball_volume,
)
from .corpus import standard_corpus, write_corpus
from .errors import BracketError, ConvergenceError, DomainError, EvaluationError
from .geometry import phi, phi_inv, radial_margin_scaled
from .lemma import MarginTable, find_violation, verify_lemma
from .levels import Piece, RadialFunction, distribution_function
from .quadrature import integrate
from .rearrangement import (
    RadialProfile,
    Tail,
    decreasing_rearrangement,
    grad_norm_euclidean,
    grad_norm_hyperbolic,
    key_comparison,
    lp_integral,
    lp_norm,
    read_profile,
    write_profile,
)
from .report import DeficitReport, reports_to_csv, reports_to_json
from .sharpness import (
    SharpnessResult,
    minimize_ratio,
    truncated_bubble,
    untruncated_bubble,
)
from .verifier import (
    euclidean_rayleigh_ratio,
    extremal_linfty_profile,
    gagliardo_nirenberg,
    linfty_inequality,
    log_sobolev,
    morrey_sobolev,
    mugelli_talenti_sum,
    poincare_deficit,
    poincare_sobolev,
)

__version__ = "0.1.0"
