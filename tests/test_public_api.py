import pydoc
import re

import retsym


def test_pydoc_and_star_import_cover_exactly_all():
    # pydoc lists a re-exported name only when __all__ names it.
    doc = pydoc.render_doc(retsym, renderer=pydoc.plaintext)
    entries = set(re.findall(r"^    (?:class )?(\w+)\b", doc, re.MULTILINE))
    assert {"RegionSet", "extract_regions", "LesionMask"} <= set(retsym.__all__)
    assert [name for name in retsym.__all__ if name not in entries] == []

    namespace: dict = {}
    exec("from retsym import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == retsym.__all__
