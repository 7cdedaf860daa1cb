"""Symbolic grading of diabetic-retinopathy lesion masks.

The pipeline starts after lesion segmentation: binary masks for four lesion
classes (microaneurysms, hemorrhages, soft exudates, hard exudates) are
reduced to 8-connected regions, summarized into small symbolic count
vectors, graded by a compact feed-forward network with separate DR and DME
heads, and turned into template explanation sentences that parse back into
the exact feature vector they came from.
"""

from .evaluation import (
    AblationResult,
    EvalReport,
    ExtractedImage,
    ablation,
    evaluate,
    extract_dataset,
    features_for_mode,
    format_report,
    joint_accuracy,
    write_report_csv,
)
from .explain import (
    Explanation,
    ExplanationParseError,
    parse,
    render,
    render_extended,
    render_simple,
)
from .grader import (
    DEFAULT_HIDDEN_DIMS,
    GraderModel,
    ModelFormatError,
    TrainConfig,
    load_model,
    predict_batch,
    save_model,
    train,
)
from .mask_io import (
    DME_GRADE_NAMES,
    DR_GRADE_NAMES,
    MANIFEST_COLUMNS,
    GradePair,
    LesionClass,
    LesionMask,
    ManifestError,
    ManifestRecord,
    MaskFormatError,
    load_manifest,
    load_mask,
    save_mask,
    write_manifest,
)
from .regions import RegionSet, extract_regions
from .symbolic import (
    DEFAULT_THRESHOLDS,
    LESION_ORDER,
    SIZE_WORDS,
    FeatureMode,
    FeaturesCsvError,
    FeatureVector,
    SizeThresholds,
    extended_features,
    read_features_csv,
    simple_features,
    write_features_csv,
)
from .synth import (
    ImagePlan,
    LabelRule,
    PackingError,
    SynthSpec,
    generate,
    label_rule,
    plan_dataset,
    rasterize,
    read_ground_truth,
)

__version__ = "0.1.0"

__all__ = [
    "AblationResult",
    "DEFAULT_HIDDEN_DIMS",
    "DEFAULT_THRESHOLDS",
    "DME_GRADE_NAMES",
    "DR_GRADE_NAMES",
    "EvalReport",
    "Explanation",
    "ExplanationParseError",
    "ExtractedImage",
    "FeatureMode",
    "FeatureVector",
    "FeaturesCsvError",
    "GradePair",
    "GraderModel",
    "ImagePlan",
    "LESION_ORDER",
    "LabelRule",
    "LesionClass",
    "LesionMask",
    "MANIFEST_COLUMNS",
    "ManifestError",
    "ManifestRecord",
    "MaskFormatError",
    "ModelFormatError",
    "PackingError",
    "RegionSet",
    "SIZE_WORDS",
    "SizeThresholds",
    "SynthSpec",
    "TrainConfig",
    "ablation",
    "evaluate",
    "extended_features",
    "extract_dataset",
    "extract_regions",
    "features_for_mode",
    "format_report",
    "generate",
    "joint_accuracy",
    "label_rule",
    "load_manifest",
    "load_mask",
    "load_model",
    "parse",
    "plan_dataset",
    "predict_batch",
    "rasterize",
    "read_features_csv",
    "read_ground_truth",
    "render",
    "render_extended",
    "render_simple",
    "save_mask",
    "save_model",
    "simple_features",
    "train",
    "write_features_csv",
    "write_manifest",
    "write_report_csv",
]
