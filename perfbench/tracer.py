"""Outside-in tracer: times calls into levelseg's layers without changing it.

The tracer replaces module attributes that ``levelseg.solver`` and
``levelseg.models`` look up at call time with wrappers that record one span
per call, and puts the original functions back when tracing ends. Spans are
kept in memory as (name, start_ns, end_ns, parent) and written out by the
caller when the benchmark ends.

A span name is ``<layer>.<function>``; the layer is the module that defines
the function (grid, models, levelset or solver), not the module that calls it.
"""

from __future__ import annotations

import contextlib
import fnmatch
import time

# (module, attribute pattern, span name). The solver and models modules
# import these names into their own namespace, so patching there reaches
# every call the solver makes; grid.gradient is also patched in grid itself
# because grid.gradient_magnitude calls it through the grid namespace.
TRACED = (
    ("levelseg.solver", "region_averages", "models.region_averages"),
    ("levelseg.solver", "*_rhs", "models.rhs"),
    ("levelseg.solver", "energy_*", "models.energy"),
    ("levelseg.solver", "reinitialize", "levelset.reinitialize"),
    ("levelseg.solver", "extract_contour", "levelset.extract_contour"),
    ("levelseg.solver", "mask_inside", "levelset.mask_inside"),
    ("levelseg.solver", "gaussian_smooth", "grid.gaussian_smooth"),
    ("levelseg.models", "curvature", "grid.curvature"),
    ("levelseg.models", "delta_eps", "grid.delta_eps"),
    ("levelseg.models", "heaviside_eps", "grid.heaviside_eps"),
    ("levelseg.models", "edge_detector", "grid.edge_detector"),
    ("levelseg.models", "gradient", "grid.gradient"),
    ("levelseg.models", "gradient_magnitude", "grid.gradient_magnitude"),
    ("levelseg.grid", "gradient", "grid.gradient"),
    ("levelseg.grid.ScalarField", "__post_init__", "grid.scalarfield_check"),
)


class Tracer:
    """Records nested spans; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []  # (name, start_ns, end_ns, parent index or -1)
        self._stack = []

    def wrap(self, name, fn):
        """A function that calls ``fn`` inside a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            # reserve the slot now so that a span's index is below its children's
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every (owner, attribute, span name) in ``targets`` for the
        duration of the block, then restore the originals, also on error."""
        originals = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original))
                originals.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def resolve_targets(modules, table=TRACED):
    """Expand ``table`` against the imported modules into (owner, attribute,
    span name) triples. ``modules`` maps a dotted name to the module, or for
    ``levelseg.grid.ScalarField`` to the class. A wildcard matches public
    names only, so that ``*_rhs`` leaves out the solver's own ``_rhs``
    dispatcher. A pattern that matches nothing is an error: the benchmark
    would silently stop measuring a layer.
    """
    targets = []
    for owner_name, pattern, span_name in table:
        owner = modules[owner_name]
        attrs = sorted(a for a in vars(owner) if a == pattern
                       or (not a.startswith("_") and fnmatch.fnmatchcase(a, pattern)))
        if not attrs:
            raise LookupError(f"{owner_name} has no attribute matching {pattern!r}")
        targets.extend((owner, attr, span_name) for attr in attrs)
    return targets


def self_times(spans):
    """Self time of each span in ns: its duration minus its direct children's."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def write_spans(path, spans, image_of_span):
    """Write spans as CSV: image, name, start_ns, end_ns, parent."""
    with open(path, "w") as out:
        out.write("image,name,start_ns,end_ns,parent\n")
        for (name, start, end, parent), image in zip(spans, image_of_span):
            out.write(f"{image},{name},{start},{end},{parent}\n")
