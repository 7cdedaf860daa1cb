"""Binary lesion-mask I/O, the dataset manifest, and the one CSV reader and writer.

Masks are single-channel PGM rasters (P2 ASCII or P5 binary, maxval <= 255).
A P2 sample is a token of ASCII digits (leading zeros allowed); ``#`` comments
run to end of line anywhere between tokens.  P2 samples go through numpy's
text parser once comments are blanked out; a file it cannot read is scanned
token by token, and the error's offset names the offending token.  A pixel is
lesion foreground iff its sample value exceeds 127.  The manifest is a CSV
binding four per-class mask files and an optional (DR, DME) label pair to each
image id; :func:`read_csv` reads every CSV input and :func:`write_csv` writes
every CSV output.
"""

from __future__ import annotations

import csv
import enum
import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

BINARIZE_THRESHOLD = 127  # sample value must exceed this to count as lesion

_PGM_SPACE = b" \t\r\n\x0b\x0c"
# P2 output for a sample, indexed by [last in its row, foreground]: the value,
# then " " or a newline, NUL-padded to four bytes.
_P2_CELLS = np.frombuffer(b"0 \x00\x00255 0\n\x00\x00255\n", dtype=np.uint8).reshape(2, 2, 4)

MANIFEST_COLUMNS = (
    "image_id",
    "ma_mask",
    "he_mask",
    "se_mask",
    "ex_mask",
    "dr_grade",
    "dme_grade",
)

DR_GRADE_RANGE = range(0, 5)
DME_GRADE_RANGE = range(0, 3)


class LesionClass(enum.Enum):
    """The four lesion classes, in their fixed pipeline order."""

    MA = 1  # microaneurysms
    HE = 2  # hemorrhages
    SE = 3  # soft exudates
    EX = 4  # hard exudates

    @property
    def index(self) -> int:
        return self.value

    @property
    def manifest_column(self) -> str:
        return self.name.lower() + "_mask"


class MaskFormatError(ValueError):
    """Raised for unreadable or malformed PGM mask files."""


class ManifestError(ValueError):
    """Raised for structurally invalid manifest CSV files."""


@dataclass(frozen=True)
class LesionMask:
    """A binary raster for one lesion class of one image.

    ``pixels`` is a C-contiguous 2-D bool array of shape (height, width);
    True marks lesion foreground.
    """

    pixels: np.ndarray
    lesion_class: LesionClass

    def __post_init__(self) -> None:
        px = np.ascontiguousarray(self.pixels, dtype=bool)
        if px.ndim != 2:
            raise ValueError(f"mask pixels must be 2-D, got shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"mask dimensions must be >= 1, got {px.shape}")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def foreground_count(self) -> int:
        return int(self.pixels.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LesionMask):
            return NotImplemented
        return (
            self.lesion_class is other.lesion_class
            and self.pixels.shape == other.pixels.shape
            and bool(np.array_equal(self.pixels, other.pixels))
        )


@dataclass(frozen=True)
class ManifestRecord:
    """One manifest row: an image id, its four mask paths in LesionClass order, optional labels."""

    image_id: str
    mask_paths: dict[LesionClass, Path] = field(compare=False)
    dr_grade: Optional[int] = None
    dme_grade: Optional[int] = None

    @property
    def labeled(self) -> bool:
        return self.dr_grade is not None


# ---------------------------------------------------------------------------
# PGM reading


# One header token after the PGM whitespace and comments before it; the token
# is empty only at end of file.
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*\n?)*([^ \t\r\n\x0b\x0c#]*)")


def _pgm_error(path: Path, message: str, offset: int) -> MaskFormatError:
    return MaskFormatError(f"{path}: {message} (byte offset {offset})")


def _read_pgm(path: Path) -> np.ndarray:
    """Read a PGM file (P2 or P5, maxval <= 255) into a uint8 (H, W) array."""
    data = path.read_bytes()
    pos, header = 0, []  # the magic number, then width, height and maxval as ints
    for what in ("magic number", "width", "height", "maxval"):
        match = _PGM_TOKEN.match(data, pos)
        token, pos = match.group(1), match.end()
        if not token:
            raise _pgm_error(path, f"unexpected end of file while reading {what}", len(data))
        if not header and token not in (b"P2", b"P5"):
            raise _pgm_error(path, f"not a P2/P5 PGM file, magic {token!r}", match.start(1))
        if header and not token.isdigit():
            raise _pgm_error(path, f"expected unsigned integer for {what}, got {token!r}", match.start(1))
        header.append(int(token) if header else token)
        if what == "height" and 0 in header[1:]:  # checked before maxval is read
            raise _pgm_error(path, f"zero dimension: width={header[1]} height={header[2]}", pos)
    magic, width, height, maxval = header
    if maxval == 0:
        raise _pgm_error(path, "maxval must be at least 1", pos)
    if maxval > 255:
        raise _pgm_error(path, f"maxval {maxval} exceeds 255 (wide samples unsupported)", pos)

    count = width * height
    if magic == b"P2":
        return _read_p2_samples(data, pos, path, maxval, count).reshape(height, width)
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or data[pos] not in _PGM_SPACE:
        raise _pgm_error(path, "missing whitespace after maxval", pos)
    pos += 1
    found = len(data) - pos
    if found < count:
        raise _pgm_error(path, f"truncated payload: expected {count} bytes, found {found}", len(data))
    if found > count:
        raise _pgm_error(
            path, f"unexpected trailing data: expected {count} payload bytes, found {found}", pos + count
        )
    flat = np.frombuffer(data, dtype=np.uint8, offset=pos)
    over = np.flatnonzero(flat > maxval) if maxval < 255 else ()  # no uint8 exceeds 255
    if len(over):
        bad = int(over[0])
        raise _pgm_error(path, f"sample value {int(flat[bad])} exceeds maxval {maxval}", pos + bad)
    return flat.reshape(height, width)


def _read_p2_samples(data: bytes, base: int, path: Path, maxval: int, count: int) -> np.ndarray:
    """Parse the P2 samples from byte ``base`` on.

    With comments blanked out, text of only digits and PGM whitespace goes to
    numpy's text parser.  Text that it does not read as ``count`` samples
    <= ``maxval`` is scanned one token at a time for its first fault, which
    names the offending token's first byte.
    """
    # Each sample needs at least a separator and a digit, so a forged header
    # that declares more samples than the file can hold fails before parsing.
    if len(data) - base < 2 * count:
        raise _pgm_error(
            path,
            f"truncated samples: {count} samples need at least {2 * count} bytes, found {len(data) - base}",
            len(data),
        )
    text = data[base:]
    if b"#" in text:
        text = re.sub(rb"#[^\n]*", b" ", text)
    # numpy reads blank text as one 0, so blank text goes to the scan.
    if not text.isspace() and not text.translate(None, b"0123456789" + _PGM_SPACE):
        values = np.fromstring(text, dtype=np.int64, sep=" ")
        if len(values) == count and values.max() <= maxval:
            return values.astype(np.uint8)
    pos = base
    for _ in range(count):
        match = _PGM_TOKEN.match(data, pos)
        token, pos = match.group(1), match.end()
        if not token:
            raise _pgm_error(path, "unexpected end of file while reading sample value", len(data))
        if not token.isdigit():
            message = f"expected unsigned integer for sample value, got {token!r}"
            raise _pgm_error(path, message, match.start(1))
        digits = token.lstrip(b"0") or b"0"
        if len(digits) > 3 or int(digits) > maxval:  # int() refuses very long digit strings
            raise _pgm_error(path, f"sample value {digits.decode()} exceeds maxval {maxval}", match.start(1))
    # The first count tokens are samples, so the text's fault is a token after them.
    raise _pgm_error(path, "unexpected trailing data after samples", _PGM_TOKEN.match(data, pos).start(1))


def load_mask(path: str | Path, lesion_class: LesionClass) -> LesionMask:
    """Load one PGM mask; sample values above 127 become foreground."""
    path = Path(path)
    if not path.is_file():
        raise MaskFormatError(f"{path}: mask file does not exist")
    samples = _read_pgm(path)
    return LesionMask(pixels=samples > BINARIZE_THRESHOLD, lesion_class=lesion_class)


def save_mask(mask: LesionMask, path: str | Path, ascii_format: bool = False) -> None:
    """Write a mask as PGM with maxval 255: foreground 255, background 0.

    Binary P5 by default; ``ascii_format`` selects P2.  Either way the file
    round-trips bit-exactly through :func:`load_mask`.
    """
    path = Path(path)
    header = f"{'P2' if ascii_format else 'P5'}\n{mask.width} {mask.height}\n255\n"
    if ascii_format:
        last = np.arange(mask.width) == mask.width - 1
        cells = _P2_CELLS[last.view(np.uint8), mask.pixels.view(np.uint8)]
        path.write_bytes(header.encode("ascii") + cells[cells != 0].tobytes())
    else:
        # A bool is one byte holding 0 or 1, so this is 0 or 255 per pixel.
        values = mask.pixels.view(np.uint8) * np.uint8(255)
        with path.open("wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(values)


# ---------------------------------------------------------------------------
# Text and CSV input and output; the manifest


def read_text(path: Path, error: type[ValueError], what: str) -> str:
    """A file's UTF-8 text.  A missing file or bytes that are not UTF-8 raise
    ``error`` naming the file, and for bad bytes the line (as csv counts it)."""
    if not path.is_file():
        raise error(f"{path}: {what} file does not exist")
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(io.StringIO(data[: exc.start].decode() + "x", newline="").readlines())
        raise error(f"{path}: line {line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_csv(path: Path, error: type[ValueError], what: str) -> list[tuple[int, list[str]]]:
    """Every record of a UTF-8 CSV file, header included, with the physical line it
    ends on.  Besides :func:`read_text`'s errors, a ``csv.Error`` (a field over
    ``csv.field_size_limit()``, say) raises ``error`` naming the file and line."""
    reader = csv.reader(io.StringIO(read_text(path, error, what), newline=""))
    try:
        return [(reader.line_num, cells) for cells in reader]
    except csv.Error as exc:
        raise error(f"{path}: line {reader.line_num}: {exc}") from None


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a header and rows as UTF-8 CSV with LF line endings."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_grades(dr_cell: str, dme_cell: str) -> tuple[Optional[int], Optional[int]]:
    """A (DR, DME) pair from two cells: both empty, or both integers in range."""
    cells = (dr_cell.strip(), dme_cell.strip())
    if not any(cells):
        return None, None
    if not all(cells):
        raise ValueError("dr_grade and dme_grade must be present together or absent together")
    grades = []
    for column, text, valid in zip(("dr_grade", "dme_grade"), cells, (DR_GRADE_RANGE, DME_GRADE_RANGE)):
        try:
            grade = int(text)
        except ValueError:
            raise ValueError(f"{column} {text!r} is not an integer") from None
        if grade not in valid:
            raise ValueError(f"{column} {grade} out of range {valid.start}..{valid.stop - 1}")
        grades.append(grade)
    return grades[0], grades[1]


def load_manifest(path: str | Path) -> list[ManifestRecord]:
    """Parse a manifest CSV into records, preserving row order.

    Columns are found by header name: extra ones are ignored and a repeated
    name takes its last column.  Blank rows are skipped; short rows read as
    padded with empty cells.  Mask paths resolve against the manifest's
    directory.  Grade cells may be empty, but only together.
    """
    path = Path(path)
    base = path.parent
    rows = read_csv(path, ManifestError, "manifest")
    header = rows[0][1] if rows else []
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in MANIFEST_COLUMNS if c not in index]
    if missing:
        raise ManifestError(f"{path}: missing column(s) {', '.join(missing)}")
    columns = [index[c] for c in MANIFEST_COLUMNS]
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for line, cells in rows[1:]:
        if not cells:
            continue
        cells += [""] * (len(header) - len(cells))
        image_id, *masks, dr_cell, dme_cell = (cells[i].strip() for i in columns)
        if not image_id:
            raise ManifestError(f"{path}: line {line}: empty image_id")
        if image_id in seen:
            raise ManifestError(f"{path}: line {line}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        mask_paths: dict[LesionClass, Path] = {}
        for cls, cell in zip(LesionClass, masks):
            if not cell:
                raise ManifestError(f"{path}: line {line}: empty {cls.manifest_column} for {image_id!r}")
            mask_paths[cls] = base / cell  # an absolute cell replaces base
        try:
            dr, dme = parse_grades(dr_cell, dme_cell)
        except ValueError as exc:
            raise ManifestError(f"{path}: line {line}: {exc}") from None
        records.append(ManifestRecord(image_id, mask_paths, dr, dme))
    return records


def write_manifest(path: str | Path, rows: list[dict[str, str]]) -> None:
    """Write manifest rows (already stringified, keyed by column) with LF endings.

    As with ``csv.DictWriter``, a missing column writes an empty cell and an
    unknown one raises ``ValueError``.
    """
    unknown = {key for row in rows for key in row}.difference(MANIFEST_COLUMNS)
    if unknown:
        raise ValueError(f"manifest rows hold unknown column(s) {', '.join(map(repr, sorted(unknown)))}")
    write_csv(path, MANIFEST_COLUMNS, ([row.get(c, "") for c in MANIFEST_COLUMNS] for row in rows))
