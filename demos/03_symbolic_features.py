"""
Symbolic feature vectors: raw counts vs size-quantized counts
=============================================================

Two summaries of one image's regions:

  simple    [n_MA, n_HE, n_SE, n_EX] — every region counted, however tiny
  extended  per class small/medium/large counts after size quantization,
            12 numbers, with sub-threshold specks and oversized blobs dropped

The default size cuts on a region's pixel count s:

  s <= 10        discarded (segmentation noise)
  10 < s <= 500  small
  500 < s <= 1000  medium
  1000 < s <= 10000  large
  s > 10000      discarded
"""

import tempfile

from retsym import (
    DEFAULT_THRESHOLDS,
    LesionClass,
    SynthSpec,
    extended_features,
    extract_regions,
    generate,
    load_manifest,
    load_mask,
    simple_features,
)

# Boundary behavior, spelled out:
for size in (10, 11, 500, 501, 1000, 1001, 10000, 10001):
    bucket = DEFAULT_THRESHOLDS.bucket_of(size)
    word = {0: "small", 1: "medium", 2: "large", None: "discarded"}[bucket]
    print(f"  region of {size:>5d} px -> {word}")

# Work on a generated image so the ground truth is known.  generate() writes
# masks whose planted regions have exact, known pixel counts.
with tempfile.TemporaryDirectory() as td:
    manifest_path = generate(SynthSpec(n_images=3, width=256, height=256, seed=1), td)
    record = load_manifest(manifest_path)[0]
    region_sets = [
        extract_regions(load_mask(record.mask_paths[cls], cls)) for cls in LesionClass
    ]

    print(f"\nimage {record.image_id} (labels: DR={record.label.dr}, DME={record.label.dme})")
    for rs in region_sets:
        print(f"  {rs.lesion_class.name}: {len(rs)} regions, sizes {sorted(rs.sizes())}")

    simple = simple_features(region_sets)
    extended = extended_features(region_sets)
    print(f"\nsimple   ({len(simple.values)} values): {list(simple.values)}")
    print(f"extended ({len(extended.values)} values): {list(extended.values)}")
    print("          [MA s/m/l, HE s/m/l, SE s/m/l, EX s/m/l]")

    # The two vectors disagree exactly when specks or giants exist: simple
    # counts them, extended filters them.
    per_class_extended = [sum(extended.values[i : i + 3]) for i in range(0, 12, 3)]
    filtered = [s - e for s, e in zip(simple.values, per_class_extended)]
    print(f"\nregions only the simple vector sees (noise specks): {filtered}")
