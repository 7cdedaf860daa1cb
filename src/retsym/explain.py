"""Plain-language explanation sentences for graded images.

Rendering turns a feature vector plus predicted grades into one sentence
naming the DR grade and enumerating the nonzero lesion counts; parsing is
the exact inverse, recovering the image id, grade text and feature vector
from a rendered sentence.  One canonical spelling is enforced (zero-count
clauses dropped, "and" with no preceding comma, plural "s" exactly when a
count differs from 1) so that parse(render(x)) == x always holds.

Image ids are free-form but must not contain the templates' connective
phrases (e.g. ' is classified as '); ids from this package's own synthetic
datasets and manifests are always safe.  An id that holds a line break
(anything ``str.splitlines`` breaks at) is refused, so that each sentence
stays one line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .mask_io import DR_GRADE_NAMES, GradePair
from .symbolic import LESION_ORDER, SIZE_WORDS, FeatureMode, FeatureVector

NO_LESION_PHRASE = "no lesion regions are detected"

_LESION_NAMES = tuple(cls.name for cls in LESION_ORDER)

_GRADE_ALTERNATION = "|".join(re.escape(name) for name in DR_GRADE_NAMES)
_LESION_ALTERNATION = "|".join(_LESION_NAMES)
# A count is ASCII digits, at most 16 of them: feature counts are below 2**53.
_COUNT = r"(?P<n>[0-9]{1,16})"


@dataclass(frozen=True)
class _Template:
    """One mode's sentence grammar: the text that renders it, the regexes that read it back."""

    head: str  # str.format fields: image_id, grade
    body: str  # str.format field: the joined clauses
    clause: str  # str.format fields: n, size, lesion, s (the plural)
    labels: tuple[tuple[Optional[str], str], ...]  # (size word, lesion) per feature
    sentence_re: re.Pattern
    clause_re: re.Pattern


_TEMPLATES = {
    # The DR diagnosis of "x" is "mild NPDR" because there are 20 MA, 5 HE,
    # 1 SE and 3 EX regions, respectively.
    FeatureMode.SIMPLE: _Template(
        head='The DR diagnosis of "{image_id}" is "{grade}" because ',
        body="there are {} regions, respectively",
        clause="{n} {lesion}",
        labels=tuple((None, lesion) for lesion in _LESION_NAMES),
        sentence_re=re.compile(
            rf'^The DR diagnosis of "(?P<id>.*)" is "(?P<grade>{_GRADE_ALTERNATION})" because '
            rf"(?:{NO_LESION_PHRASE}|there are (?P<clauses>.+) regions, respectively)\.$"
        ),
        clause_re=re.compile(rf"^{_COUNT} (?P<lesion>{_LESION_ALTERNATION})$"),
    ),
    # The image 1 is classified as severe NPDR because 37 small MAs, 2 medium
    # HEs and 3 large EXs are detected.
    FeatureMode.EXTENDED: _Template(
        head="The image {image_id} is classified as {grade} because ",
        body="{} are detected",
        clause="{n} {size} {lesion}{s}",
        labels=tuple((size, lesion) for lesion in _LESION_NAMES for size in SIZE_WORDS),
        sentence_re=re.compile(
            rf"^The image (?P<id>.*?) is classified as (?P<grade>{_GRADE_ALTERNATION}) because "
            rf"(?:{NO_LESION_PHRASE}|(?P<clauses>.+) are detected)\.$"
        ),
        clause_re=re.compile(
            rf"^{_COUNT} (?P<size>{'|'.join(SIZE_WORDS)}) (?P<lesion>{_LESION_ALTERNATION})s?$"
        ),
    ),
}


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


def _clauses(features: FeatureVector) -> tuple[tuple[int, Optional[str], str], ...]:
    labels = _TEMPLATES[features.mode].labels
    return tuple((n, *label) for n, label in zip(features.values, labels) if n)


def _sentence(image_id: str, grade_text: str, features: FeatureVector) -> str:
    template = _TEMPLATES[features.mode]
    parts = [
        template.clause.format(n=n, size=size, lesion=lesion, s="" if n == 1 else "s")
        for n, size, lesion in _clauses(features)
    ]
    body = template.body.format(_join_clauses(parts)) if parts else NO_LESION_PHRASE
    return template.head.format(image_id=image_id, grade=grade_text) + body + "."


def render(image_id: str, features: FeatureVector, grade: GradePair) -> Explanation:
    """Render with the template matching the vector's mode."""
    if "".join(image_id.splitlines()) != image_id:
        raise ValueError(f"image_id {image_id!r} holds a line break; an explanation must stay on one line")
    grade_text = DR_GRADE_NAMES[grade.dr]
    return Explanation(
        image_id=image_id,
        grade_text=grade_text,
        clauses=_clauses(features),
        rendered=_sentence(image_id, grade_text, features),
    )


def _require(mode: FeatureMode, features: FeatureVector) -> FeatureVector:
    if features.mode is not mode:
        raise ValueError(
            f"render_{mode.value} needs {mode.value} features, got {features.mode.value}"
        )
    return features


def render_simple(image_id: str, features: FeatureVector, grade: GradePair) -> Explanation:
    """:func:`render` for simple features only."""
    return render(image_id, _require(FeatureMode.SIMPLE, features), grade)


def render_extended(image_id: str, features: FeatureVector, grade: GradePair) -> Explanation:
    """:func:`render` for extended features only."""
    return render(image_id, _require(FeatureMode.EXTENDED, features), grade)


def parse(rendered: str) -> tuple[str, str, FeatureVector]:
    """Invert a rendered sentence to (image_id, grade_text, feature vector).

    Rejects anything that the renderers could not have produced: a sentence
    that does not re-render to itself (a zero count, a wrong plural, a clause
    repeated or out of order) is refused as non-canonical.
    """
    for mode, template in _TEMPLATES.items():
        match = template.sentence_re.match(rendered)
        if match is not None:
            break
    else:
        raise ExplanationParseError(f"not a recognized explanation sentence: {rendered!r}")
    image_id, grade_text = match["id"], match["grade"]

    values = [0] * mode.length
    # Clause text holds neither separator; the re-render below rejects misplaced ones.
    for clause in re.split(", | and ", match["clauses"]) if match["clauses"] else ():
        m = template.clause_re.match(clause)
        if m is None:
            raise ExplanationParseError(f"bad lesion clause: {clause!r}")
        values[template.labels.index((m.groupdict().get("size"), m["lesion"]))] = int(m["n"])

    try:
        vector = FeatureVector(mode=mode, values=tuple(values))
    except ValueError as exc:  # a count of 2**53 or more
        raise ExplanationParseError(f"bad feature counts: {exc}") from None
    if _sentence(image_id, grade_text, vector) != rendered:
        raise ExplanationParseError(f"non-canonical explanation: {rendered!r}")
    return image_id, grade_text, vector
