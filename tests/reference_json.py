"""Dict reference for the JSON of decompositions and series.

The writers that ``parsing.decomposition_to_json`` and
``parsing.series_to_json`` replaced, which built the object for
``json.dumps`` to encode; kept as the oracle of the byte tests.  An
answer is the ``json.dumps(report, sort_keys=True)`` of a report built
with these, plus its ok field and a newline.
"""

import json

from stanleydec import parsing


def decomposition_to_json(D):
    return {
        "ring": parsing.ring_to_json(D.context),
        "spaces": [{"root": list(s.root), "zplus": sorted(i + 1 for i in s.zplus),
                    "zminus": sorted(i + 1 for i in s.zminus)} for s in D.spaces],
    }


def series_to_json(h):
    return {
        "num": [[c, k] for k, c in enumerate(h.numerator) if c != 0],
        "pole": h.pole,
    }


def json_line(report, code):
    """The answer line of a report whose values are plain objects."""
    payload = {k: v() if callable(v) else v for k, v in report.items() if k != "text"}
    payload["ok"] = code == 0
    return json.dumps(payload, sort_keys=True) + "\n"
