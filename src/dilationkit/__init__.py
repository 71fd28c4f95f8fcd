"""Finite-dimensional dilation toolkit for frames, framings and
operator-valued measures.

Set DILATIONKIT_THREADS to cap the BLAS thread pools used by the dense
kernels; it must be read before numpy first loads, which importing this
package guarantees for code that imports numpy through it.
"""

import os as _os


def _configure_threads() -> None:
    value = _os.environ.get("DILATIONKIT_THREADS")
    if not value:
        return
    try:
        count = max(1, int(value))
    except ValueError:
        return
    for var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(var, str(count))


_configure_threads()

from .errors import (  # noqa: E402
    AtomRankTooHigh,
    DilationKitError,
    ExactModeTooLarge,
    IndefiniteInput,
    NotAFrame,
    NotDualPair,
    NotParseval,
    NotPositive,
    OverlappingSupports,
    ZeroPair,
)
from .linalg import (  # noqa: E402
    DEFAULT_REL_TOL,
    HermitianEig,
    eig_hermitian,
    lp_norm,
    outer_pair,
    polar_decompose,
    psd_factor,
    spectral_norm,
)
from .rng import Xorshift  # noqa: E402
from .frames import (  # noqa: E402
    Frame,
    FrameBounds,
    OnbDilation,
    RankOneDecomposition,
    RieszDilation,
    analysis_operator,
    assemble_block_decomposition,
    canonical_dual,
    dilate_dual_pair_to_riesz,
    dilate_parseval_to_onb,
    frame_bounds,
    frame_operator,
    rank_one_decompose,
)
from .framings import (  # noqa: E402
    Framing,
    RescalePlan,
    UnconditionalityReport,
    apply_rescale,
    check_reconstruction,
    coordinate_weight_sums,
    example_e11,
    example_e11_weights,
    is_dual_frame_pair,
    multiplier_apply,
    rescale_sqrt,
    unconditionality_diagnostics,
)
from .ovm import (  # noqa: E402
    Ovm,
    OvmClassification,
    classify,
    dual_ovm,
    framing_from_rank_one_ovm,
    induced_from_framing,
)
from .dilation import (  # noqa: E402
    AlphaBounds,
    AlphaNorm,
    DilationReport,
    DilationTriple,
    MinimalityGap,
    NaimarkDilation,
    Representation,
    alpha_norm,
    alpha_norm_bounds,
    build_block_dilation,
    minimality_gap,
    naimark_dilate,
    omega_upper_bound,
    verify_dilation,
)
from . import rademacher  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "AlphaBounds",
    "AlphaNorm",
    "AtomRankTooHigh",
    "DEFAULT_REL_TOL",
    "DilationKitError",
    "DilationReport",
    "DilationTriple",
    "ExactModeTooLarge",
    "Frame",
    "FrameBounds",
    "Framing",
    "HermitianEig",
    "IndefiniteInput",
    "MinimalityGap",
    "NaimarkDilation",
    "NotAFrame",
    "NotDualPair",
    "NotParseval",
    "NotPositive",
    "OnbDilation",
    "OverlappingSupports",
    "Ovm",
    "OvmClassification",
    "RankOneDecomposition",
    "Representation",
    "RescalePlan",
    "RieszDilation",
    "UnconditionalityReport",
    "Xorshift",
    "ZeroPair",
    "alpha_norm",
    "alpha_norm_bounds",
    "analysis_operator",
    "apply_rescale",
    "assemble_block_decomposition",
    "build_block_dilation",
    "canonical_dual",
    "check_reconstruction",
    "classify",
    "coordinate_weight_sums",
    "dilate_dual_pair_to_riesz",
    "dilate_parseval_to_onb",
    "dual_ovm",
    "eig_hermitian",
    "example_e11",
    "example_e11_weights",
    "frame_bounds",
    "frame_operator",
    "framing_from_rank_one_ovm",
    "induced_from_framing",
    "is_dual_frame_pair",
    "lp_norm",
    "minimality_gap",
    "multiplier_apply",
    "naimark_dilate",
    "omega_upper_bound",
    "outer_pair",
    "polar_decompose",
    "psd_factor",
    "rademacher",
    "rank_one_decompose",
    "rescale_sqrt",
    "spectral_norm",
    "unconditionality_diagnostics",
    "verify_dilation",
]
