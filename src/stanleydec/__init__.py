"""Stanley decompositions of monomial subquotients in localized
polynomial rings: construction, verification, localization, Stanley depth,
fdepth via prime filtrations, and total-absolute-degree Hilbert series.
The fdepth names load ``filtration`` the first time one is read."""

from .errors import (
    AnswerTooLargeError,
    BoxTooLargeError,
    BudgetExceededError,
    ContainmentError,
    ContextMismatchError,
    MalformedInputError,
    ParseError,
    StanleyError,
    VerificationError,
    ZeroModuleError,
)
from .hilbert import (
    HilbertSeries,
    count_maximal_spaces,
    expand,
    hilbert_count,
    series_of_decomposition,
    series_of_laurent_ring,
    series_of_quotient,
    series_of_space,
)
from .ring import (
    MonomialIdeal,
    RingContext,
    colon,
    contains,
    contraction,
    ideal,
    in_quotient,
)
from .solver import (
    CharacteristicPoset,
    SdepthResult,
    build_characteristic_poset,
    max_interval_partition,
    partition_to_decomposition,
    sdepth,
)
from .stanley import (
    StanleyDecomposition,
    StanleySpace,
    VerificationReport,
    adjoin_variable,
    canonical_sf_decomposition,
    localize_decomposition,
    sdepth_of,
    space_contains,
    verify_decomposition,
)

__version__ = "0.1.0"

# name of the interval-search kernel; there is one, in pure Python
KERNEL_BACKEND = "py"

# the names of filtration, which no command but fdepth needs: importing
# it on first use keeps its compilation off every other start
_LAZY = ("FdepthResult", "FiltrationStep", "PrimeFiltration", "fdepth", "fdepth_of",
         "localize_filtration", "verify_filtration")


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import filtration

    value = globals()[name] = getattr(filtration, name)
    return value


def __dir__():
    return sorted(set(globals()).union(_LAZY))


# `from stanleydec import *` binds the lazy names too
__all__ = [name for name in __dir__() if not name.startswith("_")]
