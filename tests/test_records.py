"""The package's records: the value semantics every caller relies on, and
a start-up that loads none of ``dataclasses``, ``inspect``, ``argparse``
and ``filtration``, whose names the package loads on first use."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import stanleydec
from stanleydec import cli, filtration, hilbert, ring, solver, stanley
from stanleydec.errors import MalformedInputError
from stanleydec.filtration import FdepthResult, FiltrationReport, FiltrationStep, PrimeFiltration
from stanleydec.hilbert import HilbertSeries
from stanleydec.ring import MonomialIdeal, RingContext
from stanleydec.solver import CharacteristicPoset, SdepthResult
from stanleydec.stanley import (
    LocalizationResult,
    StanleyDecomposition,
    StanleySpace,
    VerificationReport,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def _quotient():
    """(x, y)/(x^2*y) over K[x, y, z], built afresh on each call."""
    ctx = RingContext(3)
    return ring.ideal(ctx, (1, 0, 0), (0, 1, 0)), ring.ideal(ctx, (2, 1, 0))


def _witness():
    return solver.sdepth(*_quotient()).witness


def _filtration():
    return filtration.fdepth(*_quotient()).witness


# each type, a build of one of its values that makes every object anew,
# and the names of its fields and cached properties
BUILDS = [
    (RingContext, lambda: RingContext(3, {2}), ("n", "inverted")),
    (MonomialIdeal, lambda: _quotient()[0], ("context", "generators")),
    (StanleySpace, lambda: StanleySpace(RingContext(3, {2}), [1, 0, -1], {0}, {2}),
     ("context", "root", "zplus", "zminus")),
    (StanleyDecomposition, _witness, ("context", "roots", "zs", "spaces")),
    (VerificationReport,
     lambda: stanley.verify_decomposition(_witness(), _quotient()[0], ring.ideal(RingContext(3))),
     ("valid", "failure", "witness", "box_bound")),
    (LocalizationResult, lambda: stanley.localize_decomposition(_witness(), *_quotient(), {2}),
     ("decomposition", "dropped", "localized_I", "localized_J")),
    (HilbertSeries, lambda: hilbert.series_of_quotient(*_quotient()), ("numerator", "pole")),
    (CharacteristicPoset, lambda: solver.build_characteristic_poset(*_quotient()),
     ("context", "bound", "box", "mask", "generators", "elements")),
    (SdepthResult, lambda: solver.sdepth(*_quotient()), ("value", "witness")),
    (FiltrationStep, lambda: FiltrationStep((1, 0, 0), frozenset({1}), (1, 0, 0)),
     ("monomial", "primes", "shift")),
    (PrimeFiltration, _filtration, ("context", "chain", "steps")),
    (FiltrationReport, lambda: filtration.verify_filtration(_filtration(), *_quotient()),
     ("valid", "step", "reason")),
    (FdepthResult, lambda: filtration.fdepth(*_quotient()), ("value", "complete", "witness")),
]


@pytest.mark.parametrize("cls, build, fields", BUILDS, ids=[b[0].__name__ for b in BUILDS])
def test_value_semantics(cls, build, fields):
    """Built twice from the same arguments, a record is two objects that
    are equal, hash alike, print alike and survive pickling; no field, and
    no other attribute, can be assigned or deleted."""
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert pickle.loads(pickle.dumps(a)) == a
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name, None))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and repr(a) == repr(b)


def test_repr_text():
    """Each record prints as its type and its fields by name."""
    ctx = RingContext(2, {1})
    space = StanleySpace(ctx, (1, -1), {0}, {1})
    expect = "StanleySpace(context=%r, root=(1, -1), zplus=frozenset({0}), zminus=frozenset({1}))" % ctx
    assert repr(ctx) == "RingContext(n=2, inverted=frozenset({1}))"
    assert repr(MonomialIdeal(ctx, {(1, 5)})) == (
        "MonomialIdeal(context=%r, generators=frozenset({(1, 0)}))" % ctx)
    assert repr(space) == expect
    assert repr(StanleyDecomposition(ctx, [space])) == (
        "StanleyDecomposition(context=%r, spaces=(%s,))" % (ctx, expect))
    assert repr(HilbertSeries((1, -1, 0), 2)) == "HilbertSeries(numerator=(1,), pole=1)"
    assert repr(VerificationReport(True)) == (
        "VerificationReport(valid=True, failure='', witness=None, box_bound=0)")
    assert repr(FiltrationReport(False, 2, "x")) == "FiltrationReport(valid=False, step=2, reason='x')"
    assert repr(FiltrationStep((1, 0), frozenset({1}), (1, 0))) == (
        "FiltrationStep(monomial=(1, 0), primes=frozenset({1}), shift=(1, 0))")
    assert repr(solver.sdepth(*_quotient())).startswith(
        "SdepthResult(value=2, witness=StanleyDecomposition(")


def test_poset_compares_and_prints_without_box_and_generators():
    """Two builds of one poset are equal though their boxes are two
    objects; the mask is compared, and only the ring and bound print."""
    P, Q = (solver.build_characteristic_poset(*_quotient()) for _ in range(2))
    assert P.box is not Q.box and P == Q
    same = CharacteristicPoset(P.context, P.bound, None, P.mask, frozenset())
    assert same == P and hash(same) == hash(P)
    assert CharacteristicPoset(P.context, P.bound, P.box, P.mask ^ 1, P.generators) != P
    assert repr(P) == "CharacteristicPoset(context=RingContext(n=3, inverted=frozenset()), bound=(2, 1, 0))"
    assert P.elements is P.elements


# each value type, a build of one of its values, and per stored field a
# different value for it: first the fields it is compared by, then those
# it is not
COMPARED = [
    (RingContext, lambda: RingContext(3, {2}),
     {"n": lambda a: 4, "inverted": lambda a: frozenset({1})}, {}),
    (MonomialIdeal, lambda: _quotient()[0],
     {"context": lambda a: RingContext(3, {2}), "generators": lambda a: frozenset({(1, 0, 0)})},
     {}),
    (StanleySpace, lambda: StanleySpace(RingContext(3, {2}), [1, 0, -1], {0}, {2}),
     {"context": lambda a: RingContext(3), "root": lambda a: (1, 0, 0),
      "zplus": lambda a: frozenset({0, 1}), "zminus": lambda a: frozenset()}, {}),
    (StanleyDecomposition, _witness,
     {"context": lambda a: RingContext(3, {2}), "roots": lambda a: a.roots + ((9, 9, 9),),
      "zs": lambda a: a.zs + ((frozenset(), frozenset()),)}, {}),
    (HilbertSeries, lambda: hilbert.series_of_quotient(*_quotient()),
     {"numerator": lambda a: a.numerator + (1,), "pole": lambda a: a.pole + 1}, {}),
    (CharacteristicPoset, lambda: solver.build_characteristic_poset(*_quotient()),
     {"context": lambda a: RingContext(3, {2}), "bound": lambda a: (3, 1, 0),
      "mask": lambda a: a.mask ^ 1},
     {"box": lambda a: None, "generators": lambda a: frozenset()}),
]


def _replaced(value, fields, name=None, new=None):
    """A record of value's type whose stored fields are those of value,
    but for name, which is new.  The fields are set directly, so no
    constructor normalizes or checks them."""
    copy = object.__new__(type(value))
    for field in fields:
        object.__setattr__(copy, field, new if field == name else getattr(value, field))
    return copy


@pytest.mark.parametrize("cls, build, compared, ignored", COMPARED,
                         ids=[c[0].__name__ for c in COMPARED])
def test_each_compared_field_is_compared(cls, build, compared, ignored):
    """Changing any one field a value type is compared by makes two values
    unequal; changing one it is not compared by leaves them equal, with
    one hash.  A field left out of the type's comparison fails here."""
    a = build()
    fields = tuple(compared) + tuple(ignored)
    same = _replaced(a, fields)
    assert type(a) is cls and same == a and hash(same) == hash(a)
    for name, change in compared.items():
        new = change(a)
        assert new != getattr(a, name)
        b = _replaced(a, fields, name, new)
        assert b != a and a != b, name
    for name, change in ignored.items():
        b = _replaced(a, fields, name, change(a))
        assert b == a and hash(b) == hash(a), name


def test_defaults_normalization_and_validation():
    """The constructors keep their defaults, normalize their fields and
    refuse what they refused before."""
    ctx = RingContext(2)
    assert ctx.inverted == frozenset() and type(RingContext(2, [1]).inverted) is frozenset
    assert MonomialIdeal(ctx).generators == frozenset()
    assert MonomialIdeal(ctx, {(1, 1), (1, 2), (2, 1)}).generators == {(1, 1)}
    space = StanleySpace(ctx, [0, 1])
    assert (space.root, space.zplus, space.zminus) == ((0, 1), frozenset(), frozenset())
    report = VerificationReport(True)
    assert (report.failure, report.witness, report.box_bound) == ("", None, 0)
    report = FiltrationReport(True)
    assert (report.step, report.reason) == (-1, "")
    assert HilbertSeries([1, -1, 0, 0], 3) == HilbertSeries((1,), 2)
    for bad in (lambda: RingContext(-1), lambda: RingContext(2, {2}),
                lambda: MonomialIdeal(ctx, {(1,)}), lambda: HilbertSeries((1,), -1),
                lambda: StanleySpace(ctx, (0, -1)),
                lambda: StanleySpace(ctx, (0, 0), {0}, {0})):
        with pytest.raises(MalformedInputError):
            bad()


def test_equality_within_its_own_type():
    """A record that is not a tuple equals no tuple of its fields; the
    results and reports, which are named tuples, do."""
    ctx = RingContext(2)
    assert ctx != (2, frozenset())
    assert StanleySpace(ctx, (0, 0)) != (ctx, (0, 0), frozenset(), frozenset())
    assert HilbertSeries((1,), 2) != ((1,), 2)
    assert VerificationReport(True) == (True, "", None, 0)
    assert int(SdepthResult(3, None)) == 3 and not VerificationReport(False)
    assert int(FdepthResult(2, False, None)) == 2


def _fresh(*args, stdin=None):
    """The finished process of `python -S args` on the source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run(
        [sys.executable, "-S", *args], env=dict(os.environ, PYTHONPATH=src),
        input=stdin, capture_output=True, text=True, timeout=60,
    )


def test_startup_loads_no_dataclasses_or_inspect():
    """Importing the command line and answering one batch line, in a fresh
    interpreter without site, adds none of dataclasses, inspect, argparse
    and filtration to sys.modules, and builds no argument parser."""
    proc = _fresh(os.path.join(HERE, "startup_modules.py"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["package"] == cli.__file__ and report["exit"] == 0
    assert json.loads(report["answer"])["sdepth"] == 2
    assert "stanleydec.filtration" not in report["added"]
    assert "argparse" not in report["added"]
    assert not {"dataclasses", "inspect"} & set(report["added"])
    assert report["parsers"] == 0


FDEPTH_LINE = '{"command": "fdepth", "ring": "n=3", "I": "(x, y)", "J": "(x*y)"}'
# the answer to FDEPTH_LINE, as the package wrote it when it imported
# filtration at start-up
FDEPTH_ANSWER = (
    '{"complete": true, "fdepth": 2, "ok": true, "witness": {"chain": '
    '[{"generators": [[1, 1, 0]]}, {"generators": [[0, 1, 0]]}, '
    '{"generators": [[0, 1, 0], [1, 0, 0]]}], "ring": {"invert": [], "n": 3}, '
    '"steps": [{"primes": [1], "shift": [0, 1, 0], "u": [0, 1, 0]}, '
    '{"primes": [2], "shift": [1, 0, 0], "u": [1, 0, 0]}]}}\n'
)


def test_first_fdepth_line_loads_filtration():
    """In one fresh interpreter, an sdepth line leaves filtration unloaded
    and the fdepth line after it loads it and answers as before."""
    code = (
        "import io, sys\n"
        "from stanleydec import cli\n"
        "for line in sys.argv[1:]:\n"
        "    out = io.StringIO()\n"
        "    cli.main(['batch'], io.StringIO(line + '\\n'), out)\n"
        "    print('stanleydec.filtration' in sys.modules, out.getvalue(), end='')\n"
    )
    sdepth = json.dumps({"command": "sdepth", "ring": "n=3", "I": "(x, y)", "J": "(x*y)"})
    proc = _fresh("-c", code, sdepth, FDEPTH_LINE)
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines(keepends=True)
    assert first.startswith("False {") and json.loads(first[6:])["sdepth"] == 2
    assert second == "True " + FDEPTH_ANSWER


LAZY = ("FdepthResult", "FiltrationStep", "PrimeFiltration", "fdepth", "fdepth_of",
        "localize_filtration", "verify_filtration")


@pytest.mark.parametrize("name", LAZY)
def test_lazy_name_is_the_filtration_one(name):
    assert getattr(stanleydec, name) is getattr(filtration, name)
    assert name in dir(stanleydec) and name in stanleydec.__all__


def test_lazy_names_import_in_a_fresh_interpreter():
    """`from stanleydec import name` and `import *` load filtration for
    the seven names; a name the package lacks raises AttributeError."""
    names = ", ".join(LAZY)
    code = (
        "import sys, stanleydec\n"
        "assert 'stanleydec.filtration' not in sys.modules\n"
        "from stanleydec import {names}\n"
        "got = ({names})\n"
        "del {names}\n"
        "from stanleydec import filtration\n"
        "assert got == tuple(getattr(filtration, name) for name in {lazy})\n"
        "from stanleydec import *\n"
        "assert ({names}) == got and StanleySpace is stanleydec.StanleySpace\n"
    ).format(names=names, lazy=LAZY)
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        stanleydec.no_such_name
