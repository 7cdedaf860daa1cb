import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from retsym import (
    LesionClass,
    LesionMask,
    ManifestError,
    MaskFormatError,
    load_manifest,
    load_mask,
    save_mask,
    write_manifest,
)
from retsym.cli import main
from retsym.mask_io import BINARIZE_THRESHOLD, _read_pgm

from conftest import mask_from_ascii


def test_p5_all_zero_bytes_is_all_background(tmp_path):
    path = tmp_path / "zero.pgm"
    path.write_bytes(b"P5\n3 3\n255\n" + bytes(9))
    mask = load_mask(path, LesionClass.MA)
    assert mask.foreground_count == 0
    assert mask.pixels.shape == (3, 3)


def test_p2_threshold_corners(tmp_path):
    path = tmp_path / "corners.pgm"
    path.write_text("P2\n2 2\n255\n255 0\n0 255\n")
    mask = load_mask(path, LesionClass.HE)
    assert mask.pixels[0, 0] and mask.pixels[1, 1]
    assert not mask.pixels[0, 1] and not mask.pixels[1, 0]


def test_binarize_threshold_is_strict():
    # 127 is background, 128 is foreground; the cut is on the raw sample.
    assert BINARIZE_THRESHOLD == 127


@pytest.mark.parametrize("value,expected", [(0, False), (127, False), (128, True), (255, True)])
def test_threshold_boundary_values(tmp_path, value, expected):
    path = tmp_path / f"v{value}.pgm"
    path.write_bytes(f"P5\n1 1\n255\n".encode() + bytes([value]))
    assert load_mask(path, LesionClass.MA).pixels[0, 0] == expected


def test_round_trip_binary_and_ascii(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(25):
        h, w = rng.integers(1, 40, size=2)
        mask = LesionMask(rng.random((h, w)) < 0.3, LesionClass.SE)
        for ascii_format in (False, True):
            path = tmp_path / f"rt_{trial}_{ascii_format}.pgm"
            save_mask(mask, path, ascii_format=ascii_format)
            again = load_mask(path, LesionClass.SE)
            assert again == mask, f"trial {trial} ascii={ascii_format} did not round-trip"


_MASK_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 60)),
    st.tuples(st.integers(1, 60), st.just(1)),
    st.tuples(st.integers(1, 60), st.integers(1, 60)),
)


def _save_p2_reference(mask):
    """The P2 bytes ``save_mask`` wrote one ``str()`` per sample: rows of
    space-separated 0/255, one row a line, a newline after the last."""
    values = np.where(mask.pixels, 255, 0)
    body = "\n".join(" ".join(str(v) for v in row) for row in values.tolist())
    return f"P2\n{mask.width} {mask.height}\n255\n{body}\n".encode("ascii")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=_MASK_SHAPES,
    density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_p2_writer_matches_reference(tmp_path, shape, density, seed):
    mask = LesionMask(np.random.default_rng(seed).random(shape) < density, LesionClass.EX)
    path = tmp_path / "m.pgm"
    save_mask(mask, path, ascii_format=True)
    assert path.read_bytes() == _save_p2_reference(mask)


def _save_p5_reference(mask):
    """The P5 bytes ``save_mask`` wrote through ``np.where`` and one copy."""
    values = np.where(mask.pixels, np.uint8(255), np.uint8(0))
    return f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii") + values.tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=_MASK_SHAPES,
    density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_p5_writer_matches_reference(tmp_path, shape, density, seed):
    mask = LesionMask(np.random.default_rng(seed).random(shape) < density, LesionClass.EX)
    path = tmp_path / "m.pgm"
    save_mask(mask, path)
    assert path.read_bytes() == _save_p5_reference(mask)


def test_foreground_count_equals_bright_samples(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.integers(0, 256, size=(17, 9), dtype=np.uint8)
    path = tmp_path / "gray.pgm"
    path.write_bytes(b"P5\n9 17\n255\n" + values.tobytes())
    mask = load_mask(path, LesionClass.EX)
    assert mask.foreground_count == int((values > 127).sum())


def test_p5_magic_and_dimensions_preserved(tmp_path):
    mask = mask_from_ascii(
        """
        ..#
        #..
        """
    )
    path = tmp_path / "m.pgm"
    save_mask(mask, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5")
    assert load_mask(path, LesionClass.MA).pixels.shape == (2, 3)


# A 23-byte P2 header that declares 10^12 samples.
OVERSIZED_P2 = b"P2 1000000 1000000 255\n"


@pytest.mark.parametrize(
    "content,fragment",
    [
        (b"P6\n2 2\n255\n" + bytes(12), "P2/P5"),
        (b"P5\n0 3\n255\n", "dimension"),
        (b"P5\n2 2\n70000\n" + bytes(4), "maxval"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated"),
        (b"P5\n2 x\n255\n" + bytes(4), "integer"),
        (b"P2\n2 2\n255\n255 0 0\n", "end of file"),
        (OVERSIZED_P2, "truncated samples"),
        # numpy's text parser reads blank text as one 0.
        (b"P2 1 1 9 \n", "end of file"),
        # Too many digits for int(), which the reference calls first.
        pytest.param(b"P2 1 1 7\n" + b"9" * 5000, "exceeds maxval", id="P2 5000 nines-exceeds maxval"),
    ],
)
def test_malformed_pgm_raises_with_offset(tmp_path, content, fragment):
    path = tmp_path / "bad.pgm"
    path.write_bytes(content)
    with pytest.raises(MaskFormatError) as exc:
        load_mask(path, LesionClass.MA)
    message = str(exc.value)
    assert fragment in message, message
    assert "byte offset" in message, message
    assert path.name in message


def test_p2_maxval_error_names_the_sample_byte(tmp_path):
    # The 255 starts at byte 12, after the newline, tab and space that
    # follow maxval 25.
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P2\n3 2\n25\n\t 255 7\n12 0 255\n")
    with pytest.raises(MaskFormatError) as exc:
        load_mask(path, LesionClass.MA)
    assert str(exc.value) == f"{path}: sample value 255 exceeds maxval 25 (byte offset 12)"


@pytest.mark.parametrize(
    "content,message",
    [
        # The payload starts at byte 9; the 10 is its third byte.
        (b"P5\n2 2\n9\n" + bytes([0, 9, 10, 200]), "sample value 10 exceeds maxval 9 (byte offset 11)"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated payload: expected 4 bytes, found 3 (byte offset 14)"),
        (b"P5\n2 2\n255\n" + bytes(6),
         "unexpected trailing data: expected 4 payload bytes, found 6 (byte offset 15)"),
    ],
    ids=["over-maxval", "truncated", "trailing"],
)
def test_p5_payload_errors(tmp_path, content, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(content)
    with pytest.raises(MaskFormatError) as exc:
        load_mask(path, LesionClass.MA)
    assert str(exc.value) == f"{path}: {message}"


def test_p5_payload_is_read_after_the_header(tmp_path):
    path = tmp_path / "ok.pgm"
    path.write_bytes(b"P5 3 1 255 " + bytes([255, 127, 128]))
    assert _read_pgm(path).tolist() == [[255, 127, 128]]
    path.write_bytes(b"P5\n3 1\n200\n" + bytes([200, 0, 199]))
    assert _read_pgm(path).tolist() == [[200, 0, 199]]


def _scan_p2_reference(path):
    """Read a P2 file one token at a time in plain Python.

    A token is a run of bytes that are neither PGM whitespace nor ``#``; a
    comment runs from ``#`` to the end of its line.  This is the per-sample
    reader that the numpy pass replaced, with one change: a sample above
    maxval is reported at its own first byte.
    """
    data = path.read_bytes()
    tokens = [
        (m.start(), m.group())
        for m in re.finditer(rb"#[^\n]*|[^ \t\r\n\x0b\x0c#]+", data)
        if not m.group().startswith(b"#")
    ]

    def error(message, offset):
        return MaskFormatError(f"{path}: {message} (byte offset {offset})")

    def uint(k, what):
        if k >= len(tokens):
            raise error(f"unexpected end of file while reading {what}", len(data))
        at, text = tokens[k]
        if not text.isdigit():
            raise error(f"expected unsigned integer for {what}, got {text!r}", at)
        return int(text)

    def end(k):
        return tokens[k][0] + len(tokens[k][1])

    if not tokens:
        raise error("unexpected end of file while reading magic number", len(data))
    if tokens[0][1] not in (b"P2", b"P5"):
        raise error(f"not a P2/P5 PGM file, magic {tokens[0][1]!r}", tokens[0][0])
    width, height = uint(1, "width"), uint(2, "height")
    if width == 0 or height == 0:
        raise error(f"zero dimension: width={width} height={height}", end(2))
    maxval = uint(3, "maxval")
    if maxval == 0:
        raise error("maxval must be at least 1", end(3))
    if maxval > 255:
        raise error(f"maxval {maxval} exceeds 255 (wide samples unsupported)", end(3))
    count = width * height
    if len(data) - end(3) < 2 * count:
        raise error(
            f"truncated samples: {count} samples need at least {2 * count} bytes, "
            f"found {len(data) - end(3)}",
            len(data),
        )
    samples = []
    for k in range(4, 4 + count):
        value = uint(k, "sample value")
        if value > maxval:
            raise error(f"sample value {value} exceeds maxval {maxval}", tokens[k][0])
        samples.append(value)
    if len(tokens) > 4 + count:
        raise error("unexpected trailing data after samples", tokens[4 + count][0])
    return np.array(samples, dtype=np.uint8).reshape(height, width)


# Valid P2 files: header comments, a comment between samples, a comment
# glued to a token, a zero-padded sample, CR/LF and tab separators, and a
# maxval below 255.
P2_SEEDS = [
    b"P2\n2 2\n255\n255 0\n0 255\n",
    b"P2 # magic\n# a comment line\n 3 # width\n2\n255\n128 0 # in the samples\n0255 7\n0 1\n",
    b"P2\r\n3 2\r\n25\r\n\t25 7 12\r\n0 025 3\r\n",
    b"P2\n4 1\n200\n1#x\n22\x0b33\x0c199",
    b"P2 1 1 9 09",
]

_MUTATION_BYTES = b"0123456789 \t\r\n\x0b\x0c#x-+"


def _mutate(data, edits):
    """Apply byte edits after the magic number, so P2 files stay P2."""
    data = bytearray(data)
    for kind, where, byte in edits:
        at = 2 + where % (len(data) - 1)
        if kind == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if kind == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


_edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(0, 200),
        st.sampled_from(list(_MUTATION_BYTES)),
    ),
    max_size=4,
)


def _outcome(read, path):
    try:
        return "ok", read(path).tolist()
    except MaskFormatError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("seed", P2_SEEDS)
def test_p2_seed_files_are_valid(tmp_path, seed):
    path = tmp_path / "seed.pgm"
    path.write_bytes(seed)
    expected = _scan_p2_reference(path)
    np.testing.assert_array_equal(_read_pgm(path), expected)
    np.testing.assert_array_equal(load_mask(path, LesionClass.MA).pixels, expected > BINARIZE_THRESHOLD)


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.sampled_from(P2_SEEDS), edits=_edits)
def test_p2_reader_matches_reference_on_mutated_files(tmp_path, seed, edits):
    path = tmp_path / "mutated.pgm"
    path.write_bytes(_mutate(seed, edits))
    expected = _outcome(_scan_p2_reference, path)
    assert _outcome(_read_pgm, path) == expected
    if expected[0] == "ok":
        mask = load_mask(path, LesionClass.MA)
        assert mask.pixels.tolist() == (np.array(expected[1]) > BINARIZE_THRESHOLD).tolist()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.sampled_from(P2_SEEDS + [b"P5\n2 2\n255\n\xff\x00\x00\x80", b"P5 1 2 9\n\t\x09"]),
    edits=_edits,
)
def test_extract_exits_0_or_2_on_mutated_masks(tmp_path, capsys, seed, edits):
    (tmp_path / "ma.pgm").write_bytes(_mutate(seed, edits))
    ok = tmp_path / "ok.pgm"
    if not ok.exists():
        save_mask(LesionMask(np.zeros((2, 2), dtype=bool), LesionClass.HE), ok)
    write_manifest(tmp_path / "m.csv", [{
        "image_id": "img0", "ma_mask": "ma.pgm", "he_mask": "ok.pgm",
        "se_mask": "ok.pgm", "ex_mask": "ok.pgm", "dr_grade": "0", "dme_grade": "0",
    }])
    rc = main(["extract", "--manifest", str(tmp_path / "m.csv"), "--out", str(tmp_path / "f.csv")])
    err = capsys.readouterr().err
    assert rc in (0, 2), err


def test_missing_file_raises(tmp_path):
    with pytest.raises(MaskFormatError):
        load_mask(tmp_path / "absent.pgm", LesionClass.MA)


def test_comments_and_whitespace_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2 # magic\n# a comment line\n 2 # width\n1\n255\n128 0\n")
    mask = load_mask(path, LesionClass.MA)
    assert mask.pixels.shape == (1, 2)
    assert mask.foreground_count == 1


def test_trailing_data_rejected(tmp_path):
    path = tmp_path / "extra.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(5))
    with pytest.raises(MaskFormatError):
        load_mask(path, LesionClass.MA)


def test_extract_rejects_oversized_p2_header(tmp_path, capsys):
    assert len(OVERSIZED_P2) == 23
    (tmp_path / "big.pgm").write_bytes(OVERSIZED_P2)
    save_mask(LesionMask(np.zeros((2, 2), dtype=bool), LesionClass.HE), tmp_path / "ok.pgm")
    write_manifest(tmp_path / "m.csv", [{
        "image_id": "img0", "ma_mask": "big.pgm", "he_mask": "ok.pgm",
        "se_mask": "ok.pgm", "ex_mask": "ok.pgm", "dr_grade": "0", "dme_grade": "0",
    }])
    assert main(["extract", "--manifest", str(tmp_path / "m.csv"),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "truncated samples" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Manifests


def _write_rows(path, rows):
    header = "image_id,ma_mask,he_mask,se_mask,ex_mask,dr_grade,dme_grade"
    path.write_text("\n".join([header, *rows]) + "\n")


def test_empty_manifest(tmp_path):
    path = tmp_path / "m.csv"
    _write_rows(path, [])
    assert load_manifest(path) == []


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    rows = [
        {
            "image_id": f"img{i}",
            "ma_mask": f"masks/img{i}_MA.pgm",
            "he_mask": f"masks/img{i}_HE.pgm",
            "se_mask": f"masks/img{i}_SE.pgm",
            "ex_mask": f"masks/img{i}_EX.pgm",
            "dr_grade": str(i % 5),
            "dme_grade": str(i % 3),
        }
        for i in range(6)
    ]
    write_manifest(path, rows)
    records = load_manifest(path)
    assert [r.image_id for r in records] == [f"img{i}" for i in range(6)]
    for i, record in enumerate(records):
        assert record.dr_grade == i % 5 and record.dme_grade == i % 3
        # relative paths resolve against the manifest's directory
        assert record.mask_paths[LesionClass.MA] == tmp_path / f"masks/img{i}_MA.pgm"


def test_write_manifest_pads_missing_columns_and_rejects_unknown_ones(tmp_path):
    path = tmp_path / "m.csv"
    write_manifest(path, [{"image_id": "a", "ma_mask": "a.pgm"}])
    assert path.read_bytes() == b"image_id,ma_mask,he_mask,se_mask,ex_mask,dr_grade,dme_grade\na,a.pgm,,,,,\n"
    with pytest.raises(ValueError):
        write_manifest(path, [{"image_id": "a", "grade": "1"}])


def test_unlabeled_rows_allowed(tmp_path):
    path = tmp_path / "m.csv"
    _write_rows(path, ["a,1.pgm,2.pgm,3.pgm,4.pgm,,"])
    record = load_manifest(path)[0]
    assert not record.labeled
    assert record.dr_grade is None and record.dme_grade is None


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("a,1.pgm,2.pgm,3.pgm,4.pgm,5,1", "dr_grade"),
        ("a,1.pgm,2.pgm,3.pgm,4.pgm,1,3", "dme_grade"),
        ("a,1.pgm,2.pgm,3.pgm,4.pgm,1,", "together"),
        ("a,1.pgm,2.pgm,3.pgm,4.pgm,,2", "together"),
        ("a,1.pgm,2.pgm,3.pgm,4.pgm,x,1", "dr_grade"),
        ("a,,2.pgm,3.pgm,4.pgm,1,1", "ma_mask"),
    ],
)
def test_bad_manifest_rows(tmp_path, row, fragment):
    path = tmp_path / "m.csv"
    _write_rows(path, [row])
    with pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert fragment in str(exc.value), str(exc.value)


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "m.csv"
    row = "a,1.pgm,2.pgm,3.pgm,4.pgm,1,1"
    _write_rows(path, [row, row])
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("image_id,ma_mask\nx,y\n")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_crlf_manifest_accepted(tmp_path):
    path = tmp_path / "m.csv"
    header = "image_id,ma_mask,he_mask,se_mask,ex_mask,dr_grade,dme_grade"
    path.write_bytes((header + "\r\na,1.pgm,2.pgm,3.pgm,4.pgm,2,1\r\n").encode())
    records = load_manifest(path)
    assert len(records) == 1 and records[0].dr_grade == 2


def test_synth_manifest_loads(small_synth_dir):
    _, manifest = small_synth_dir
    records = load_manifest(manifest)
    assert len(records) == 30
    assert all(r.labeled for r in records)
    for record in records[:3]:
        for cls in LesionClass:
            assert record.mask_paths[cls].is_file()
