"""Monomials and monomial ideals in a localized polynomial ring.

The ambient ring is K[x_1..x_n] with the variables indexed by ``inverted``
turned into units.  Monomials are bare exponent tuples (Python ints, so
arbitrary precision); exponents may be negative exactly on the inverted
coordinates.  Ideals are held in normal form at all times: generators have
zero exponents on inverted coordinates and are pairwise incomparable under
componentwise divisibility.
"""

from operator import attrgetter

from .errors import (
    ContainmentError,
    ContextMismatchError,
    MalformedInputError,
)


class _Frozen:
    """Base of the package's records that are not tuples.  ``__init__``
    sets each field once, through ``object.__setattr__``; assigning to or
    deleting an attribute afterwards raises AttributeError.  A
    ``cached_property`` still fills in, as it writes the instance's
    ``__dict__``.  Each record declares two class attributes: ``_key``, an
    ``attrgetter`` of the fields it is compared and hashed by, and
    ``_shown``, the names its repr prints.  A record equals only records
    of its own type."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._shown))


class RingContext(_Frozen):
    """Ambient ring: n variables, the ones in `inverted` made invertible."""

    _shown = ("n", "inverted")
    _key = attrgetter(*_shown)

    def __init__(self, n, inverted=frozenset()):
        if n < 0:
            raise MalformedInputError("variable count must be nonnegative")
        inverted = frozenset(inverted)
        for j in sorted(inverted):
            if not (0 <= j < n):
                raise MalformedInputError(
                    "inverted variable x%d out of range for n=%d" % (j + 1, n)
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "inverted", inverted)

    @property
    def plain(self):
        """Indices of the non-inverted (ordinary polynomial) variables."""
        return [i for i in range(self.n) if i not in self.inverted]


def check_monomial(m, ctx):
    """Validate an exponent tuple against the ring, returning it as a tuple."""
    m = tuple(m)
    if len(m) != ctx.n:
        raise MalformedInputError(
            "exponent vector has length %d, expected %d" % (len(m), ctx.n)
        )
    for i, e in enumerate(m):
        if not isinstance(e, int):
            raise MalformedInputError("exponent %r is not an integer" % (e,))
        if e < 0 and i not in ctx.inverted:
            raise MalformedInputError(
                "negative exponent on non-inverted variable %d" % (i + 1)
            )
    return m


def one(ctx):
    """The unit monomial."""
    return (0,) * ctx.n


def strip_units(m, ctx):
    """Zero out the exponents on inverted coordinates (divide by a unit)."""
    return tuple(0 if i in ctx.inverted else e for i, e in enumerate(m))


def _divides(g, m, ctx):
    # g is normalized (zero on inverted coords); inverted coords of m are free
    return all(m[i] >= g[i] for i in range(ctx.n) if i not in ctx.inverted)


class MonomialIdeal(_Frozen):
    """A monomial ideal in normal form.

    The empty generator set is the zero ideal; the set {1} is the unit
    ideal.  The constructor normalizes eagerly, so two ideals are equal
    iff their (context, generators) pairs are equal.
    """

    _shown = ("context", "generators")
    _key = attrgetter(*_shown)

    def __init__(self, context, generators=frozenset()):
        gens = [check_monomial(g, context) for g in generators]
        gens = {strip_units(g, context) for g in gens}
        unit = one(context)
        if unit in gens:
            gens = {unit}
        else:
            gens = {
                g
                for g in gens
                if not any(
                    h != g and _divides(h, g, context) for h in gens
                )
            }
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "generators", frozenset(gens))

    @property
    def is_zero(self):
        return not self.generators

    @property
    def is_unit(self):
        return one(self.context) in self.generators

    def sorted_generators(self):
        return sorted(self.generators)

    def plus(self, m):
        """The ideal generated by this one together with the monomial m:
        this one when it holds m, and otherwise m and the generators that
        m does not divide, which are already in normal form."""
        ctx = self.context
        m = strip_units(check_monomial(m, ctx), ctx)
        if any(_divides(g, m, ctx) for g in self.generators):
            return self
        I = object.__new__(MonomialIdeal)
        object.__setattr__(I, "context", ctx)
        object.__setattr__(I, "generators", frozenset(
            [g for g in self.generators if not _divides(m, g, ctx)] + [m]))
        return I


def ideal(ctx, *gens):
    """The ideal the raw generator tuples span in the localized ring, in
    normal form."""
    return MonomialIdeal(ctx, frozenset(tuple(g) for g in gens))


def contains(I, m):
    """Membership of the monomial m in the ideal I."""
    m = check_monomial(m, I.context)
    return any(_divides(g, m, I.context) for g in I.generators)


def is_subideal(J, I):
    """Whether J is contained in I (same context required)."""
    if J.context != I.context:
        raise ContextMismatchError("ideals live in different rings")
    return all(contains(I, g) for g in J.generators)


def require_subquotient(I, J):
    """Raise unless J is an ideal contained in I, in the same context."""
    if not is_subideal(J, I):
        raise ContainmentError("J is not contained in I")


def in_quotient(I, J, m):
    """Whether m represents a nonzero basis element of I/J."""
    require_subquotient(I, J)
    return contains(I, m) and not contains(J, m)


def contraction(I):
    """The same generators reinterpreted in the polynomial ring (nothing
    inverted); this is I intersected with the polynomial ring.  I itself
    when its ring inverts nothing: its generators are already normal
    there, and normalizing them again costs O(g^2)."""
    if not I.context.inverted:
        return I
    return MonomialIdeal(RingContext(I.context.n), I.generators)


def colon(I, u):
    """The colon ideal (I : u) for a monomial u (units in u are ignored)."""
    u = strip_units(check_monomial(u, I.context), I.context)
    gens = {
        tuple(max(g[i] - u[i], 0) for i in range(I.context.n))
        for g in I.generators
    }
    return MonomialIdeal(I.context, frozenset(gens))


def extend_to(I, ctx):
    """Extend I to a context with the same variables but a different
    inverted set (the generators are re-normalized there)."""
    if ctx.n != I.context.n:
        raise ContextMismatchError("variable counts differ")
    return MonomialIdeal(ctx, I.generators)
