"""Plain-language explanation sentences for graded images.

Rendering turns a feature vector plus predicted grades into one sentence
naming the DR grade and enumerating the nonzero lesion counts; parsing is
the exact inverse, recovering the image id, grade text and feature vector
from a rendered sentence.  One canonical spelling is enforced (zero-count
clauses dropped, "and" with no preceding comma, plural "s" exactly when a
count differs from 1) so that parse(render(x)) == x always holds.

Image ids are free-form but must not contain the templates' connective
phrases (e.g. ' is classified as '); ids from this package's own synthetic
datasets and manifests are always safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .grader import DR_GRADE_NAMES, GradePair
from .symbolic import LESION_ORDER, SIZE_WORDS, FeatureMode, FeatureVector

NO_LESION_PHRASE = "no lesion regions are detected"

_LESION_NAMES = tuple(cls.name for cls in LESION_ORDER)

_GRADE_ALTERNATION = "|".join(re.escape(name) for name in DR_GRADE_NAMES)

_SIMPLE_RE = re.compile(
    rf'^The DR diagnosis of "(?P<id>.*)" is "(?P<grade>{_GRADE_ALTERNATION})" '
    rf"because (?P<body>.+)\.$"
)
_EXTENDED_RE = re.compile(
    rf"^The image (?P<id>.*?) is classified as (?P<grade>{_GRADE_ALTERNATION}) "
    rf"because (?P<body>.+)\.$"
)
# A count is ASCII digits, at most 16 of them: feature counts are below 2**53.
_COUNT = r"([0-9]{1,16})"
_SIMPLE_CLAUSE_RE = re.compile(rf"^{_COUNT} (MA|HE|SE|EX)$")
_EXTENDED_CLAUSE_RE = re.compile(rf"^{_COUNT} (small|medium|large) (MA|HE|SE|EX)(s?)$")


class ExplanationParseError(ValueError):
    """Raised when a string is not a canonical rendered explanation."""


@dataclass(frozen=True)
class Explanation:
    image_id: str
    grade_text: str
    clauses: tuple[tuple[int, Optional[str], str], ...]  # (count, size word, lesion)
    rendered: str


def _join_clauses(parts: list[str]) -> str:
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def _simple_sentence(image_id: str, grade_text: str, values: tuple[int, ...]) -> str:
    head = f'The DR diagnosis of "{image_id}" is "{grade_text}" because '
    if not any(values):
        return head + NO_LESION_PHRASE + "."
    parts = [f"{n} {name}" for n, name in zip(values, _LESION_NAMES) if n]
    return head + f"there are {_join_clauses(parts)} regions, respectively."


def _extended_sentence(image_id: str, grade_text: str, values: tuple[int, ...]) -> str:
    head = f"The image {image_id} is classified as {grade_text} because "
    if not any(values):
        return head + NO_LESION_PHRASE + "."
    parts = []
    for i, n in enumerate(values):
        if n:
            lesion = _LESION_NAMES[i // 3]
            plural = "" if n == 1 else "s"
            parts.append(f"{n} {SIZE_WORDS[i % 3]} {lesion}{plural}")
    return head + f"{_join_clauses(parts)} are detected."


def _clauses(features: FeatureVector) -> tuple[tuple[int, Optional[str], str], ...]:
    out = []
    for i, n in enumerate(features.values):
        if not n:
            continue
        if features.mode is FeatureMode.SIMPLE:
            out.append((n, None, _LESION_NAMES[i]))
        else:
            out.append((n, SIZE_WORDS[i % 3], _LESION_NAMES[i // 3]))
    return tuple(out)


def render_simple(image_id: str, features: FeatureVector, grade: GradePair) -> Explanation:
    """Sentence in the style: The DR diagnosis of "x" is "mild NPDR" because
    there are 20 MA, 5 HE, 1 SE and 3 EX regions, respectively."""
    if features.mode is not FeatureMode.SIMPLE:
        raise ValueError(f"render_simple needs simple features, got {features.mode.value}")
    grade_text = DR_GRADE_NAMES[grade.dr]
    return Explanation(
        image_id=image_id,
        grade_text=grade_text,
        clauses=_clauses(features),
        rendered=_simple_sentence(image_id, grade_text, features.values),
    )


def render_extended(image_id: str, features: FeatureVector, grade: GradePair) -> Explanation:
    """Sentence in the style: The image 1 is classified as severe NPDR because
    37 small MAs, 2 medium HEs and 3 large EXs are detected."""
    if features.mode is not FeatureMode.EXTENDED:
        raise ValueError(f"render_extended needs extended features, got {features.mode.value}")
    grade_text = DR_GRADE_NAMES[grade.dr]
    return Explanation(
        image_id=image_id,
        grade_text=grade_text,
        clauses=_clauses(features),
        rendered=_extended_sentence(image_id, grade_text, features.values),
    )


def render(image_id: str, features: FeatureVector, grade: GradePair) -> Explanation:
    """Render with the template matching the vector's mode."""
    if features.mode is FeatureMode.SIMPLE:
        return render_simple(image_id, features, grade)
    return render_extended(image_id, features, grade)


def _split_clause_list(body: str) -> list[str]:
    # The final separator is " and "; earlier ones are ", ".  Clause text never
    # contains either, so a plain split suffices; canonicality is checked by
    # re-rendering afterwards.
    head, sep, tail = body.rpartition(" and ")
    return ([*head.split(", "), tail] if sep else [tail]) if body else []


def parse(rendered: str) -> tuple[str, str, FeatureVector]:
    """Invert a rendered sentence to (image_id, grade_text, feature vector).

    Rejects anything that the renderers could not have produced.
    """
    match = _SIMPLE_RE.match(rendered)
    mode = FeatureMode.SIMPLE
    if match is None:
        match = _EXTENDED_RE.match(rendered)
        mode = FeatureMode.EXTENDED
    if match is None:
        raise ExplanationParseError(f"not a recognized explanation sentence: {rendered!r}")
    image_id, grade_text, body = match["id"], match["grade"], match["body"]

    values = [0] * mode.length
    if body != NO_LESION_PHRASE:
        if mode is FeatureMode.SIMPLE:
            if not (body.startswith("there are ") and body.endswith(" regions, respectively")):
                raise ExplanationParseError(f"malformed clause section: {body!r}")
            body = body[len("there are ") : -len(" regions, respectively")]
        else:
            if not body.endswith(" are detected"):
                raise ExplanationParseError(f"malformed clause section: {body!r}")
            body = body[: -len(" are detected")]
        for clause in _split_clause_list(body):
            if mode is FeatureMode.SIMPLE:
                m = _SIMPLE_CLAUSE_RE.match(clause)
                if m is None:
                    raise ExplanationParseError(f"bad lesion clause: {clause!r}")
                count, lesion = int(m.group(1)), m.group(2)
                index = _LESION_NAMES.index(lesion)
            else:
                m = _EXTENDED_CLAUSE_RE.match(clause)
                if m is None:
                    raise ExplanationParseError(f"bad lesion clause: {clause!r}")
                count, size, lesion, plural = (
                    int(m.group(1)),
                    m.group(2),
                    m.group(3),
                    m.group(4),
                )
                if (count != 1) != (plural == "s"):
                    raise ExplanationParseError(f"count/plural disagreement: {clause!r}")
                index = _LESION_NAMES.index(lesion) * 3 + SIZE_WORDS.index(size)
            if count == 0:
                raise ExplanationParseError(f"zero-count clause not canonical: {clause!r}")
            if values[index]:
                raise ExplanationParseError(f"duplicate clause for {clause!r}")
            values[index] = count

    try:
        vector = FeatureVector(mode=mode, values=tuple(values))
    except ValueError as exc:  # a count of 2**53 or more
        raise ExplanationParseError(f"bad feature counts: {exc}") from None
    canonical = (
        _simple_sentence(image_id, grade_text, vector.values)
        if mode is FeatureMode.SIMPLE
        else _extended_sentence(image_id, grade_text, vector.values)
    )
    if canonical != rendered:
        raise ExplanationParseError(f"non-canonical explanation: {rendered!r}")
    return image_id, grade_text, vector
