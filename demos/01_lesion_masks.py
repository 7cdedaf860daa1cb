"""
Lesion masks on disk: the PGM format and the dataset manifest
=============================================================

Everything downstream starts from binary masks, one per lesion class per
image.  This script builds a tiny mask by hand, writes it in both PGM
flavors, and shows how a manifest ties four masks and two grades to one
image id.
"""

import tempfile
from pathlib import Path

import numpy as np

from retsym import LesionClass, LesionMask, load_manifest, load_mask, save_mask, write_manifest

workdir = Path(tempfile.mkdtemp(prefix="retsym_demo_"))
print(f"writing demo files under {workdir}\n")

# A mask is just a 2-D boolean array tagged with its lesion class.  Here is a
# 6x10 microaneurysm mask with two blobs:
art = [
    "..##......",
    "..##......",
    "..........",
    ".......#..",
    "......###.",
    ".......#..",
]
pixels = np.array([[ch == "#" for ch in row] for row in art])
mask = LesionMask(pixels=pixels, lesion_class=LesionClass.MA)
print(f"mask: {mask.pixels.shape[0]}x{mask.pixels.shape[1]}, "
      f"{mask.foreground_count} foreground pixels")

# save_mask writes binary PGM (P5) by default; ascii_format=True gives the
# human-readable P2 flavor.  Both round-trip bit-exactly.
binary_path = workdir / "ma.pgm"
ascii_path = workdir / "ma_ascii.pgm"
save_mask(mask, binary_path)
save_mask(mask, ascii_path, ascii_format=True)
print(f"\nP2 file contents ({ascii_path.name}):")
print(ascii_path.read_text())

assert load_mask(binary_path, LesionClass.MA) == mask
assert load_mask(ascii_path, LesionClass.MA) == mask
print("both PGM flavors round-trip exactly")

# Loading binarizes at a fixed cut: a sample value counts as foreground only
# when it is strictly above 127.  Gray inputs therefore need no preprocessing.
gray = workdir / "gray.pgm"
gray.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
loaded = load_mask(gray, LesionClass.HE)
print(f"\nsamples [0, 127, 128, 255] binarize to {loaded.pixels[0].tolist()}")

# A dataset is a CSV manifest: image id, four mask paths (relative to the
# manifest), and optional DR/DME grades that must appear together.
for cls in LesionClass:
    save_mask(LesionMask(pixels, cls), workdir / f"img0_{cls.name}.pgm")
write_manifest(
    workdir / "manifest.csv",
    [{
        "image_id": "img0",
        "ma_mask": "img0_MA.pgm",
        "he_mask": "img0_HE.pgm",
        "se_mask": "img0_SE.pgm",
        "ex_mask": "img0_EX.pgm",
        "dr_grade": "2",
        "dme_grade": "1",
    }],
)
record = load_manifest(workdir / "manifest.csv")[0]
print(f"\nmanifest row: id={record.image_id!r} dr={record.label.dr} dme={record.label.dme}")
print(f"MA mask resolves to {record.mask_paths[LesionClass.MA]}")
