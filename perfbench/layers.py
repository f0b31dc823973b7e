"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces public functions of each stanleydec module
with wrappers and ``uninstall()`` puts the originals back.  Every wrapped
call is a span; a span's self time is its duration minus the time of the
wrapped calls inside it, so the self times of all spans add up to the
time spent inside ``cli.main``.  ``ring.contains`` and ``ring.colon`` run
millions of times and are only counted, never timed: their time stays in
the self time of the span that called them.  Counts come from calls that
return; a call that raises (``RecursionError`` in the kernel) adds its
time to its span but nothing to the counts, so ``intervals.us_per_node``
uses the time of returning kernel calls only.

The modules call each other through module attributes (``ring.contains``,
``solver.build_characteristic_poset``), so replacing the attribute
reaches every caller.  ``find_partition`` is the one name ``solver`` binds
at import, so it is replaced in ``solver`` itself.
"""

from collections import Counter, defaultdict
from math import prod
from time import perf_counter

# (module, function, layer metric its self time adds to); every function
# `cli` calls in each module, plus the solver's phases
SPANS = (
    ("cli", "main", "cli.self_s"),
    ("cli", "run_request", "cli.self_s"),
    ("parsing", "parse_ring", "parsing.self_s"),
    ("parsing", "parse_ideal", "parsing.self_s"),
    ("parsing", "parse_decomposition", "parsing.self_s"),
    ("parsing", "parse_index_set", "parsing.self_s"),
    ("parsing", "ring_to_json", "parsing.self_s"),
    ("parsing", "ideal_to_json", "parsing.self_s"),
    ("parsing", "ideal_str", "parsing.self_s"),
    ("parsing", "decomposition_to_json", "parsing.self_s"),
    ("parsing", "decomposition_str", "parsing.self_s"),
    ("parsing", "series_to_json", "parsing.self_s"),
    ("parsing", "series_str", "parsing.self_s"),
    ("parsing", "filtration_to_json", "parsing.self_s"),
    ("solver", "sdepth", "solver.sdepth_self_s"),   # keeps it out of cli.self_s
    ("solver", "build_characteristic_poset", "solver.poset_s"),
    ("solver", "partition_to_decomposition", "solver.lift_s"),
    ("solver", "_embed_and_invert", "solver.lift_s"),
    ("solver", "find_partition", "intervals.search_s"),
    ("stanley", "verify_decomposition", "stanley.verify_s"),
    ("stanley", "localize_decomposition", "stanley.localize_s"),
    ("hilbert", "series_of_decomposition", "hilbert.series_s"),
    ("hilbert", "expand", "hilbert.expand_s"),
    ("filtration", "fdepth", "filtration.fdepth_s"),
)

COUNTED = (("ring", "contains", "ring.contains_calls"),
           ("ring", "colon", "filtration.colon_calls"))


def _region_tests(args, report):
    """Box points times spaces, from the box bound the verifier reports."""
    D = args[0]
    B = report.box_bound
    sides = [2 * B + 1 if i in D.context.inverted else B + 1 for i in range(D.context.n)]
    return prod(sides) * len(D.spaces)


class Tracer:
    def __init__(self, modules):
        self.modules = modules        # name -> imported stanleydec module
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._child = [0.0]           # time of wrapped calls, one slot per open span
        self._saved = []

    # ---------------------------------------------------------- wrapping

    def _span(self, metric, fn, after):
        self_s, child = self.self_s, self._child

        def wrapped(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                self_s[metric] += spent - child.pop()
                child[-1] += spent
            if after is not None:
                after(args, result, spent)
            return result

        return wrapped

    def _counted(self, metric, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _after(self, name):
        counts = self.counts
        if name == "find_partition":
            def after(args, result, spent):
                status, _, nodes = result
                counts["intervals.k_tried"] += 1
                counts["intervals.nodes"] += nodes
                counts["intervals.returned_us"] += 1e6 * spent
                if status == "found":
                    counts["intervals.useful_nodes"] += nodes
            return after
        if name == "build_characteristic_poset":
            def after(args, poset, spent):
                counts["solver.poset_elements"] += len(poset.elements)
            return after
        if name == "_embed_and_invert":
            def after(args, dec, spent):
                counts["solver.witness_spaces"] += len(dec.spaces)
            return after
        if name == "verify_decomposition":
            def after(args, report, spent):
                counts["stanley.verify_region_tests"] += _region_tests(args, report)
            return after
        if name == "fdepth":
            def after(args, res, spent):
                counts["filtration.fdepth_calls"] += 1
                counts["filtration.incomplete"] += not res.complete
            return after
        return None

    def install(self):
        for module, name, metric in SPANS:
            mod = self.modules[module]
            fn = getattr(mod, name)
            self._saved.append((mod, name, fn))
            setattr(mod, name, self._span(metric, fn, self._after(name)))
        for module, name, metric in COUNTED:
            mod = self.modules[module]
            fn = getattr(mod, name)
            self._saved.append((mod, name, fn))
            setattr(mod, name, self._counted(metric, fn))

    def uninstall(self):
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    # ----------------------------------------------------------- results

    def metrics(self):
        """The per-layer metrics, as name -> value."""
        c, s = self.counts, self.self_s
        nodes = c["intervals.nodes"]
        fdepth_calls = c["filtration.fdepth_calls"]
        out = {
            "parsing.self_s": s["parsing.self_s"],
            "cli.self_s": s["cli.self_s"],
            "solver.poset_s": s["solver.poset_s"],
            "solver.poset_elements": c["solver.poset_elements"],
            "solver.lift_s": s["solver.lift_s"],
            "solver.witness_spaces": c["solver.witness_spaces"],
            "intervals.search_s": s["intervals.search_s"],
            "intervals.nodes": nodes,
            "intervals.k_tried": c["intervals.k_tried"],
            "intervals.useful_node_ratio": c["intervals.useful_nodes"] / nodes if nodes else 0.0,
            "intervals.us_per_node": c["intervals.returned_us"] / nodes if nodes else 0.0,
            "stanley.verify_s": s["stanley.verify_s"],
            "stanley.verify_region_tests": c["stanley.verify_region_tests"],
            "stanley.localize_s": s["stanley.localize_s"],
            "hilbert.series_s": s["hilbert.series_s"],
            "hilbert.expand_s": s["hilbert.expand_s"],
            "filtration.fdepth_s": s["filtration.fdepth_s"],
            "filtration.colon_calls": c["filtration.colon_calls"],
            "filtration.incomplete_share":
                c["filtration.incomplete"] / fdepth_calls if fdepth_calls else 0.0,
            "ring.contains_calls": c["ring.contains_calls"],
        }
        return out
