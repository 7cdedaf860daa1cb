import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retsym import (
    ExplanationParseError,
    FeatureMode,
    FeatureVector,
    GradePair,
    parse,
    render,
    render_extended,
    render_simple,
)
from retsym.grader import DR_GRADE_NAMES


def _simple(values):
    return FeatureVector(FeatureMode.SIMPLE, tuple(values))


def _extended(values):
    return FeatureVector(FeatureMode.EXTENDED, tuple(values))


def test_simple_template():
    exp = render_simple("image 1", _simple([33, 13, 5, 27]), GradePair(2, 0))
    assert exp.rendered == (
        'The DR diagnosis of "image 1" is "moderate NPDR" because '
        "there are 33 MA, 13 HE, 5 SE and 27 EX regions, respectively."
    )
    assert exp.grade_text == "moderate NPDR"
    assert exp.clauses == ((33, None, "MA"), (13, None, "HE"), (5, None, "SE"), (27, None, "EX"))


def test_extended_template():
    vec = _extended([37, 0, 0, 26, 2, 2, 0, 0, 0, 197, 5, 3])
    exp = render_extended("1", vec, GradePair(3, 0))
    assert exp.rendered == (
        "The image 1 is classified as severe NPDR because "
        "37 small MAs, 26 small HEs, 2 medium HEs, 2 large HEs, "
        "197 small EXs, 5 medium EXs and 3 large EXs are detected."
    )


def test_zero_case_wording():
    simple = render_simple("x", _simple([0, 0, 0, 0]), GradePair(0, 0))
    assert simple.rendered == (
        'The DR diagnosis of "x" is "no DR" because no lesion regions are detected.'
    )
    extended = render_extended("x", _extended([0] * 12), GradePair(0, 0))
    assert extended.rendered == (
        "The image x is classified as no DR because no lesion regions are detected."
    )


def test_zero_entries_dropped():
    exp = render_simple("a", _simple([0, 4, 0, 1]), GradePair(1, 0))
    assert exp.rendered.endswith("because there are 4 HE and 1 EX regions, respectively.")


def test_single_clause_has_no_and():
    exp = render_simple("a", _simple([7, 0, 0, 0]), GradePair(1, 0))
    assert "because there are 7 MA regions, respectively." in exp.rendered
    assert " and " not in exp.rendered


def test_singular_plural_agreement():
    exp = render_extended("a", _extended([1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]), GradePair(1, 0))
    assert "1 small MA, 2 medium MAs and 1 large EX are detected." in exp.rendered


def test_no_oxford_comma():
    exp = render_extended("a", _extended([3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]), GradePair(1, 0))
    assert ", and" not in exp.rendered
    assert "3 small MAs, 2 medium MAs and 1 large MA" in exp.rendered


def test_all_grades_render():
    for dr, name in enumerate(DR_GRADE_NAMES):
        exp = render("a", _simple([1, 0, 0, 0]), GradePair(dr, 0))
        assert f'"{name}"' in exp.rendered


def test_render_dispatches_on_mode():
    assert "DR diagnosis" in render("a", _simple([1, 0, 0, 0]), GradePair(1, 0)).rendered
    assert "classified as" in render("a", _extended([1] + [0] * 11), GradePair(1, 0)).rendered


def test_render_mode_mismatch():
    with pytest.raises(ValueError):
        render_simple("a", _extended([0] * 12), GradePair(0, 0))
    with pytest.raises(ValueError):
        render_extended("a", _simple([0] * 4), GradePair(0, 0))


def test_parse_inverts_render_examples():
    vec = _simple([33, 13, 5, 27])
    exp = render_simple("image 1", vec, GradePair(2, 0))
    image_id, grade_text, parsed = parse(exp.rendered)
    assert image_id == "image 1"
    assert grade_text == "moderate NPDR"
    assert parsed == vec


def test_parse_render_identity_random():
    rng = np.random.default_rng(99)
    for trial in range(400):
        mode = FeatureMode.SIMPLE if trial % 2 else FeatureMode.EXTENDED
        values = rng.integers(0, 250, size=mode.length)
        values[rng.random(mode.length) < 0.5] = 0  # plenty of dropped clauses
        vec = FeatureVector(mode, tuple(int(v) for v in values))
        grade = GradePair(int(rng.integers(0, 5)), int(rng.integers(0, 3)))
        image_id = f"img{trial:04d}"
        exp = render(image_id, vec, grade)
        got_id, got_grade, got_vec = parse(exp.rendered)
        assert (got_id, got_vec) == (image_id, vec), exp.rendered
        assert got_grade == DR_GRADE_NAMES[grade.dr]


def test_parse_accepts_awkward_ids():
    for image_id in ("image 1", "a-b_c.d", "07", "scan_55", ""):
        exp = render(image_id, _extended([0] * 11 + [2]), GradePair(4, 2))
        assert parse(exp.rendered)[0] == image_id


@pytest.mark.parametrize("image_id", ["a\nb", "a\rb", "a\x85b", "a\u2028b", "a\n"])
def test_render_refuses_an_id_with_a_line_break(image_id):
    # str.splitlines breaks the sentence there, and parse refuses a "\n".
    with pytest.raises(ValueError, match=re.escape(f"image_id {image_id!r} holds a line break")):
        render(image_id, _simple([1, 0, 0, 0]), GradePair(1, 0))


def test_render_refusal_shows_a_long_id_cut():
    with pytest.raises(ValueError) as exc:
        render("x" * 300 + "\n", _simple([1, 0, 0, 0]), GradePair(1, 0))
    assert str(exc.value) == (
        f"image_id '{'x' * 40}'... (301 characters) holds a line break; an explanation must stay on one line"
    )


@pytest.mark.parametrize(
    "text",
    [
        "",
        "not an explanation at all",
        # zero-count clause is never rendered
        'The DR diagnosis of "a" is "no DR" because there are 0 MA regions, respectively.',
        # clause order must follow the vector order
        'The DR diagnosis of "a" is "no DR" because there are 3 HE and 2 MA regions, respectively.',
        # duplicate clause
        'The DR diagnosis of "a" is "no DR" because there are 3 MA and 2 MA regions, respectively.',
        # Oxford comma is not canonical
        'The DR diagnosis of "a" is "no DR" because there are 1 MA, 2 HE, and 3 SE regions, respectively.',
        # unknown grade wording
        'The DR diagnosis of "a" is "grade 9" because there are 3 MA regions, respectively.',
        # bad plural: 2 without s
        "The image a is classified as PDR because 2 small MA are detected.",
        # bad plural: 1 with s
        "The image a is classified as PDR because 1 small MAs are detected.",
        # double space is not canonical
        "The image a is classified as severe NPDR  because 1 small MA are detected.",
        # trailing junk
        'The DR diagnosis of "a" is "no DR" because no lesion regions are detected. ',
        # missing closing period
        "The image a is classified as PDR because 1 small MA are detected",
        # unknown size word
        "The image a is classified as PDR because 3 huge MAs are detected.",
        # unknown lesion code
        'The DR diagnosis of "a" is "no DR" because there are 3 XX regions, respectively.',
    ],
)
def test_parse_rejects_non_canonical(text):
    with pytest.raises(ExplanationParseError):
        parse(text)


def test_parse_mixed_templates_rejected():
    # simple head with extended body and vice versa
    with pytest.raises(ExplanationParseError):
        parse('The DR diagnosis of "a" is "PDR" because 3 small MAs are detected.')
    with pytest.raises(ExplanationParseError):
        parse("The image a is classified as PDR because there are 3 MA regions, respectively.")


# Count text that no renderer writes: at and past the 2**53 limit of a
# feature count, past int()'s 4,300-digit limit, and other scripts' digits.
_HOSTILE_COUNTS = st.one_of(
    st.integers(2**53 - 2, 2**70).map(str),
    st.integers(17, 6000).map(lambda n: "9" * n),
    st.text(st.characters(categories=("Nd",)), min_size=1, max_size=20),
)


@st.composite
def _hostile_sentences(draw):
    mode = draw(st.sampled_from(FeatureMode))
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        count = draw(_HOSTILE_COUNTS | st.integers(1, 300).map(str))
        lesion = draw(st.sampled_from(("MA", "HE", "SE", "EX")))
        if mode is FeatureMode.SIMPLE:
            clauses.append(f"{count} {lesion}")
        else:
            size = draw(st.sampled_from(("small", "medium", "large")))
            clauses.append(f"{count} {size} {lesion}{'' if count == '1' else 's'}")
    if draw(st.booleans()):  # the same clause twice
        clauses.insert(draw(st.integers(0, len(clauses))), draw(st.sampled_from(clauses)))
    body = ", ".join(clauses[:-1]) + " and " + clauses[-1] if len(clauses) > 1 else clauses[0]
    if mode is FeatureMode.SIMPLE:
        return f'The DR diagnosis of "a" is "no DR" because there are {body} regions, respectively.'
    return f"The image a is classified as no DR because {body} are detected."


@settings(max_examples=300, deadline=None)
@given(sentence=_hostile_sentences())
def test_parse_raises_only_its_own_error(sentence):
    try:
        parse(sentence)
    except ExplanationParseError:
        pass
