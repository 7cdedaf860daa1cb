"""Symbolic grading of diabetic-retinopathy lesion masks.

The pipeline starts after lesion segmentation: binary masks for four lesion
classes (microaneurysms, hemorrhages, soft exudates, hard exudates) are
reduced to 8-connected regions, summarized into small symbolic count
vectors, graded by a compact feed-forward network with separate DR and DME
heads, and turned into template explanation sentences that parse back into
the exact feature vector they came from.
"""

from types import ModuleType as _ModuleType

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

# pydoc lists a re-exported name only when __all__ names it.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
del _ModuleType
