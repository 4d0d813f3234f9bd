"""Exact computation of Hirzebruch genera, circle-action localization,
and generalized-Todd rigidity classification."""

from .catalog import (
    DEFAULT_ORDER,
    CharacteristicSeries,
    SeriesSpec,
    closed_form_cpn,
    construct,
    h_n,
    novikov_g,
    parse_spec,
    verify_novikov,
)
from .chern import (
    GradedPoly,
    cpn_chern_numbers,
    evaluate_genus,
    multiplicative_sequence,
    partitions,
    power_sum,
)
from .gaussian import GaussianRational, parse_gaussian
from .localization import (
    FixedPoint,
    FixedPointSet,
    ahbr_value,
    cpn_fixed_points,
    equivariant_genus,
    sign_counts,
)
from .rigidity import (
    ARReport,
    GTReport,
    NotEvenSeriesError,
    ar1_residual,
    ar_check,
    classify,
    classify_oriented,
    lemma41_residual,
    reconstruct,
)
from .series import (
    InsufficientOrderError,
    LaurentSeries,
    PowerSeries,
    ZeroSeriesDivisionError,
    exp_series,
    log_series,
)

__version__ = "0.1.0"
