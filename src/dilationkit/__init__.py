"""Finite-dimensional dilation toolkit for frames, framings and
operator-valued measures.

Set DILATIONKIT_THREADS to cap the BLAS thread pools used by the dense
kernels; it must be read before numpy first loads, which importing this
package guarantees for code that imports numpy through it.

Submodules load on first use: `dilationkit.Frame` imports `frames` (and
what it needs) the first time the name is looked up, so a program that
works only with measures never loads the frame or sign-matrix modules.
"""

import importlib as _importlib
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

__version__ = "0.1.0"

# defining submodule -> the public names it exports
_EXPORTS = {
    "errors": (
        "AtomRankTooHigh", "DilationKitError", "ExactModeTooLarge", "IndefiniteInput",
        "NotAFrame", "NotDualPair", "NotParseval", "NotPositive", "OverlappingSupports",
        "ZeroPair",
    ),
    "linalg": (
        "DEFAULT_REL_TOL", "HermitianEig", "eig_hermitian", "lp_norm", "outer_pair",
        "polar_decompose", "psd_factor", "spectral_norm",
    ),
    "rng": ("Xorshift",),
    "frames": (
        "Frame", "FrameBounds", "OnbDilation", "RankOneDecomposition", "RieszDilation",
        "analysis_operator", "assemble_block_decomposition", "canonical_dual",
        "dilate_dual_pair_to_riesz", "dilate_parseval_to_onb", "frame_bounds",
        "frame_operator", "rank_one_decompose",
    ),
    "framings": (
        "Framing", "RescalePlan", "UnconditionalityReport", "apply_rescale",
        "check_reconstruction", "coordinate_weight_sums", "example_e11",
        "example_e11_weights", "is_dual_frame_pair", "multiplier_apply", "rescale_sqrt",
        "unconditionality_diagnostics",
    ),
    "ovm": (
        "Ovm", "OvmClassification", "classify", "dual_ovm", "framing_from_rank_one_ovm",
        "induced_from_framing",
    ),
    "dilation": (
        "AlphaBounds", "AlphaNorm", "DilationReport", "DilationTriple", "MinimalityGap",
        "NaimarkDilation", "Representation", "alpha_norm", "alpha_norm_bounds",
        "build_block_dilation", "minimality_gap", "naimark_dilate", "omega_upper_bound",
        "verify_dilation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("rademacher",)

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    """Import the submodule that defines `name` and cache the name here (PEP 562)."""
    if name in _SUBMODULES:
        value = _importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
