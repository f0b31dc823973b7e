"""Import ``stanleydec.cli`` and answer one ``batch`` line, then print, as
one JSON object, the file of the package and the modules that this added
to ``sys.modules``.  Exits with 1 when ``dataclasses`` or ``inspect`` is
among them: no module of the package needs either, and importing them
costs more than a short request.

    PYTHONPATH=src python tests/startup_modules.py    # the source tree
    cd /tmp && python /path/to/tests/startup_modules.py   # the installed package
"""

import io
import json
import sys

FORBIDDEN = {"dataclasses", "inspect"}
LINE = '{"command": "sdepth", "ring": "n=3 invert={3}", "I": "(x, y)", "J": "(x^2*y)"}\n'


def main():
    before = set(sys.modules)
    from stanleydec import cli

    out = io.StringIO()
    code = cli.main(["batch"], io.StringIO(LINE), out)
    added = sorted(set(sys.modules) - before)
    print(json.dumps({"package": cli.__file__, "exit": code, "answer": out.getvalue(),
                      "added": added}))
    found = FORBIDDEN.intersection(added)
    if found:
        return "start-up imported %s" % ", ".join(sorted(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
