"""modcascade: two-stage coarse-to-fine object-detection cascade framework.

Routing, false-negative-aware evaluation, statistically simulated
detectors, and an analytic classification-error model, all desk-scale
and seed-deterministic. ``import modcascade`` loads no submodule and no
numpy: each exported name imports its submodule when first used.
"""

from importlib import import_module

# submodule -> the names it exports from the package
_EXPORTS = {
    "_kernels": ("backend_name",),
    "core": (
        "MISS", "AnnotatedImage", "BoundingBox", "ClassTaxonomy", "Dataset", "Detection",
        "GroundTruthObject", "load_dataset", "make_dataset", "save_dataset", "validate_taxonomy",
    ),
    "detector": ("ConfidenceLaw", "DetectorHandle", "DetectorProfile", "detect"),
    "errormodel": (
        "FeatureBudget", "FeatureClassModel", "bayes_error", "deformation_check",
        "feature_count", "merge_general", "modular_advantage", "over_capacity", "pdf_curves",
    ),
    "errors": ("UnknownLabelError", "ValidationError"),
    "evaluation": (
        "EvalReport", "average_precision", "evaluate_run", "fn_image_flags", "iou",
        "map_with_fn_accounting",
    ),
    "profiles": ("flat_profile", "stage1_profile", "stage2_profiles"),
    "router": ("RoutingConfig", "RoutingTrace", "compare_tree_vs_flat", "route_v1", "route_v2"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind ``name`` on its first use; a submodule
    named in ``_EXPORTS`` resolves to itself."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
