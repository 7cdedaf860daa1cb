"""Binary lesion-mask I/O, the dataset manifest, and the one CSV reader.

Masks are single-channel PGM rasters (P2 ASCII or P5 binary, maxval <= 255).
A P2 sample is a token of ASCII digits (leading zeros allowed); ``#`` comments
run to end of line anywhere between tokens, and error offsets name the
offending token.  A pixel is lesion foreground iff its sample value exceeds
127.  The manifest is a CSV binding four per-class mask files and an optional
(DR, DME) label pair to each image id; :func:`read_csv` reads every CSV input.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

BINARIZE_THRESHOLD = 127  # sample value must exceed this to count as lesion

_PGM_SPACE = b" \t\r\n\x0b\x0c"
_IS_TOKEN_BYTE = np.ones(256, dtype=bool)
_IS_TOKEN_BYTE[list(_PGM_SPACE)] = False
_IS_DIGIT = np.zeros(256, dtype=bool)
_IS_DIGIT[list(b"0123456789")] = True
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
    """One manifest row: an image id, its four mask paths, optional labels."""

    image_id: str
    mask_paths: dict[LesionClass, Path] = field(compare=False)
    dr_grade: Optional[int] = None
    dme_grade: Optional[int] = None

    @property
    def labeled(self) -> bool:
        return self.dr_grade is not None


# ---------------------------------------------------------------------------
# PGM reading


class _PgmScanner:
    """Tracks a byte offset while pulling header tokens from raw PGM."""

    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.path = path
        self.pos = 0

    def error(self, message: str, offset: int | None = None) -> MaskFormatError:
        at = self.pos if offset is None else offset
        return MaskFormatError(f"{self.path}: {message} (byte offset {at})")

    def skip_space_and_comments(self) -> None:
        data = self.data
        n = len(data)
        while self.pos < n:
            c = data[self.pos]
            if c in _PGM_SPACE:
                self.pos += 1
            elif c == ord("#"):
                nl = data.find(b"\n", self.pos)
                self.pos = n if nl == -1 else nl + 1
            else:
                return

    def next_token(self, what: str) -> tuple[bytes, int]:
        self.skip_space_and_comments()
        if self.pos >= len(self.data):
            raise self.error(f"unexpected end of file while reading {what}")
        start = self.pos
        data = self.data
        n = len(data)
        while self.pos < n and data[self.pos] not in b" \t\r\n\x0b\x0c#":
            self.pos += 1
        return data[start : self.pos], start

    def next_uint(self, what: str) -> int:
        token, start = self.next_token(what)
        if not token.isdigit():
            raise self.error(f"expected unsigned integer for {what}, got {token!r}", start)
        return int(token)


def _read_pgm(path: Path) -> np.ndarray:
    """Read a PGM file (P2 or P5, maxval <= 255) into a uint8 (H, W) array."""
    data = path.read_bytes()
    scanner = _PgmScanner(data, path)

    magic, magic_off = scanner.next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise scanner.error(f"not a P2/P5 PGM file, magic {magic!r}", magic_off)

    width = scanner.next_uint("width")
    height = scanner.next_uint("height")
    if width == 0 or height == 0:
        raise scanner.error(f"zero dimension: width={width} height={height}")
    maxval = scanner.next_uint("maxval")
    if maxval == 0:
        raise scanner.error("maxval must be at least 1")
    if maxval > 255:
        raise scanner.error(f"maxval {maxval} exceeds 255 (wide samples unsupported)")

    count = width * height
    if magic == b"P2":
        return _read_p2_samples(scanner, maxval, count).reshape(height, width)
    # Exactly one whitespace byte separates the header from the payload.
    if scanner.pos >= len(data) or data[scanner.pos] not in _PGM_SPACE:
        raise scanner.error("missing whitespace after maxval")
    scanner.pos += 1
    found = len(data) - scanner.pos
    if found < count:
        raise scanner.error(
            f"truncated payload: expected {count} bytes, found {found}", len(data)
        )
    if found > count:
        raise scanner.error(
            f"unexpected trailing data: expected {count} payload bytes, found {found}",
            scanner.pos + count,
        )
    flat = np.frombuffer(data, dtype=np.uint8, offset=scanner.pos)
    over = np.flatnonzero(flat > maxval) if maxval < 255 else ()  # no uint8 exceeds 255
    if len(over):
        bad = int(over[0])
        raise scanner.error(
            f"sample value {int(flat[bad])} exceeds maxval {maxval}",
            len(data) - count + bad,
        )
    return flat.reshape(height, width)


def _read_p2_samples(scanner: _PgmScanner, maxval: int, count: int) -> np.ndarray:
    """Parse the P2 samples after ``maxval`` in one numpy pass over the bytes.

    A token is a run of bytes that are neither PGM whitespace nor inside a
    comment (``#`` to the end of its line).  Each token must be ASCII digits
    with a value <= ``maxval``; errors name the offending token's first byte.
    """
    data, base = scanner.data, scanner.pos
    # Each sample needs at least a separator and a digit; checking that
    # before allocating keeps a forged header from sizing the buffers.
    if len(data) - base < 2 * count:
        raise scanner.error(
            f"truncated samples: {count} samples need at least {2 * count} bytes, "
            f"found {len(data) - base}",
            len(data),
        )
    raw = np.frombuffer(data, dtype=np.uint8)
    section = raw[base:]
    # flags[3 + i] marks section[i] as part of a token; the three False in
    # front let every token look back three bytes without leaving the array.
    flags = np.zeros(len(section) + 3, dtype=bool)
    in_token = flags[3:]
    in_token[:] = _IS_TOKEN_BYTE[section]
    if data.find(b"#", base) != -1:
        in_token &= ~_after_last(section == ord("#"), section == ord("\n"))
    last = np.flatnonzero(in_token & np.diff(in_token, append=False))  # each token's last byte
    n_tokens = len(last)

    def token(k: int) -> tuple[int, bytes]:
        """Token k's offset in ``data`` and its bytes; section[0] is never in one."""
        start = base + int(np.flatnonzero(~in_token[: last[k]])[-1]) + 1
        return start, data[start : base + int(last[k]) + 1]

    non_digit = np.flatnonzero(in_token > _IS_DIGIT[section])  # token bytes but not digits
    bad_token = int(np.searchsorted(last, non_digit[0])) if non_digit.size else n_tokens

    # Per token, the byte k before its last one as a digit (other bytes wrap
    # to >= 10) and whether that byte is in the token (False for header bytes).
    def digit(k: int) -> np.ndarray:
        return raw[base - k :][last] - np.uint8(ord("0"))

    def flag(k: int) -> np.ndarray:
        return flags[3 - k :][last]

    # A token's value from its last three digits.  A longer token is zero
    # padded or out of range; one out of range is marked 1000 > maxval.
    values = digit(0).astype(np.uint16)
    two = flag(1)
    values += two * digit(1) * np.uint16(10)
    three = two & flag(2)
    values += three * digit(2) * np.uint16(100)
    longer = three & flag(3)
    if longer.any():
        high_digit = _after_last(in_token & (section != ord("0")), ~in_token)
        values[longer] = np.where(high_digit[last[longer] - 3], 1000, values[longer])

    over = np.flatnonzero(values[: min(bad_token, count)] > maxval)
    if over.size:
        at, text = token(int(over[0]))
        value = text.lstrip(b"0").decode() or "0"
        raise scanner.error(f"sample value {value} exceeds maxval {maxval}", at)
    if bad_token < min(n_tokens, count):
        at, text = token(bad_token)
        raise scanner.error(f"expected unsigned integer for sample value, got {text!r}", at)
    if n_tokens < count:
        raise scanner.error("unexpected end of file while reading sample value", len(data))
    if n_tokens > count:
        raise scanner.error("unexpected trailing data after samples", token(count)[0])
    return values.astype(np.uint8)


def _after_last(marks: np.ndarray, resets: np.ndarray) -> np.ndarray:
    """True where the last mark at or before a byte comes after the last reset.

    With marks at ``#`` and resets at newlines, this is the comment bytes.
    """
    index = np.arange(len(marks))
    last_mark = np.maximum.accumulate(np.where(marks, index, -1))
    last_reset = np.maximum.accumulate(np.where(resets, index, -1))
    return last_mark > last_reset


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
# Text and CSV input; the manifest


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
    """Write manifest rows (already stringified, keyed by column) with LF endings."""
    path = Path(path)
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
