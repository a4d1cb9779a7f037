"""modcascade: two-stage coarse-to-fine object-detection cascade framework.

Routing, false-negative-aware evaluation, statistically simulated
detectors, and an analytic classification-error model, all desk-scale
and seed-deterministic.
"""

from ._kernels import backend_name
from .core import (
    MISS,
    AnnotatedImage,
    BoundingBox,
    ClassTaxonomy,
    Dataset,
    Detection,
    GroundTruthObject,
    load_dataset,
    make_dataset,
    save_dataset,
    validate_taxonomy,
)
from .detector import (
    ConfidenceLaw,
    DetectorHandle,
    DetectorProfile,
    detect,
)
from .errormodel import (
    FeatureBudget,
    FeatureClassModel,
    bayes_error,
    deformation_check,
    feature_count,
    merge_general,
    modular_advantage,
    over_capacity,
    pdf_curves,
)
from .errors import UnknownLabelError, ValidationError
from .evaluation import (
    EvalReport,
    MatchResult,
    average_precision,
    evaluate_run,
    fn_image_flags,
    iou,
    map_with_fn_accounting,
    match_detections,
)
from .profiles import flat_profile, stage1_profile, stage2_profiles
from .router import (
    RoutingConfig,
    RoutingTrace,
    compare_tree_vs_flat,
    route_v1,
    route_v2,
)

__version__ = "0.1.0"
