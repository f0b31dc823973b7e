"""Import ``stanleydec.cli`` and answer one ``batch`` line, then print, as
one JSON object, the file of the package, the modules that this added to
``sys.modules`` and the number of ``argparse.ArgumentParser`` objects the
line built.  Exits with 1 when ``dataclasses`` or ``inspect`` is among
the modules, or when the line built a parser: no module of the package
needs either module, ``batch`` reads no arguments, and each costs more
than a short request.

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

    import argparse    # cli has loaded it: this adds nothing

    parsers = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = counted
    out = io.StringIO()
    code = cli.main(["batch"], io.StringIO(LINE), out)
    added = sorted(set(sys.modules) - before)
    print(json.dumps({"package": cli.__file__, "exit": code, "answer": out.getvalue(),
                      "added": added, "parsers": len(parsers)}))
    problems = []
    found = FORBIDDEN.intersection(added)
    if found:
        problems.append("start-up imported %s" % ", ".join(sorted(found)))
    if parsers:
        problems.append("batch built %d argument parsers" % len(parsers))
    return "; ".join(problems) or 0


if __name__ == "__main__":
    sys.exit(main())
