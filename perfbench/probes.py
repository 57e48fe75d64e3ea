"""Outside-in tracing of triorbit: call counters, inclusive time and coarse spans.

Nothing here touches the library's source.  ``Tracer.install`` replaces
module attributes and class methods with thin wrappers for the rest of the
process.  A function bound under several names (for
example ``triorbit.trimat.matrix_rank`` and the ``matrix_rank`` that
``triorbit.canonical`` imported) gets the same wrapper under every name,
so counts aggregate per function however it was reached.

Every wrapped call is counted.  Inclusive time is taken only at the
outermost activation of a probe, so recursion and re-entry are not counted
twice.  Spans (name, start, end, parent) are kept only for the coarse
probes in ``SPANNED``; kernels such as the triangular product only count.
"""

import functools
import time
import types

# Modules whose public callables are wrapped, in import-dependency order.
MODULES = ("field", "trimat", "modpairs", "gl2", "canonical", "partitions",
           "oracle", "cli")

# Methods wrapped explicitly.  Hot accessors such as LowerTriMatrix.entry
# are left alone: a wrapper would cost more than the call it measures.
METHODS = (
    ("field", "GF", "inv"),
    ("trimat", "LowerTriMatrix", "__mul__"),
    ("trimat", "LowerTriMatrix", "inverse"),
    ("modpairs", "ModulePair", "is_free"),
    ("gl2", "GL2Element", "__mul__"),
    ("gl2", "GL2Element", "inverse"),
)

# Private phases, wrapped by name so the pair scan, the decomposition and
# the word search can be timed from outside.  One that a refactor removes
# is skipped and reads 0.
PHASES = (
    ("oracle", "_Scan"),
    ("oracle", "_build_report"),
    ("oracle", "_decompose"),
    ("canonical", "_search_word"),
)

# Bindings timed separately from their function: the canonicalizer
# cross-check that the oracle runs.
SITES = (
    ("oracle", "canonicalize"),
    ("oracle", "random_free_pairs"),
)

SPANNED = frozenset({
    "cli.main", "oracle.verify_classification", "oracle._build_report",
    "oracle._Scan", "oracle._decompose", "site:oracle.random_free_pairs",
})


class Probe:
    """Aggregate of one wrapped function."""

    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class Tracer:
    """Installs wrappers on a freshly imported triorbit and collects their data."""

    def __init__(self, package):
        self.package = package
        self.on = False
        self.probes = {}
        self.spans = []
        self.canon_calls = []  # (seconds, outcome) per canonicalize call
        self._open = []

    def probe(self, key):
        return self.probes.setdefault(key, Probe())

    def seconds(self, key):
        probe = self.probes.get(key)
        return probe.seconds if probe else 0.0

    def calls(self, key):
        probe = self.probes.get(key)
        return probe.calls if probe else 0

    def install(self):
        pkg = self.package
        modules = [getattr(pkg, name) for name in MODULES]
        wrapped = {}
        for owner in [pkg] + modules:
            for name, obj in list(vars(owner).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(pkg.__name__ + "."):
                    continue
                key = _key(obj)
                if key == "canonical.canonicalize":
                    wrapper = wrapped.get(key) or self._canonicalize_wrapper(obj)
                else:
                    wrapper = wrapped.get(key) or self._wrapper(obj, key)
                wrapped[key] = wrapper
                setattr(owner, name, wrapper)
        for mod, cls, meth in METHODS:
            klass = getattr(getattr(pkg, mod), cls)
            setattr(klass, meth, self._wrapper(vars(klass)[meth], f"{mod}.{cls}.{meth}"))
        for mod, name in PHASES:
            owner = getattr(pkg, mod)
            if hasattr(owner, name):
                setattr(owner, name, self._wrapper(getattr(owner, name), f"{mod}.{name}"))
        for mod, name in SITES:
            owner = getattr(pkg, mod)
            setattr(owner, name, self._wrapper(getattr(owner, name), f"site:{mod}.{name}"))

    def _wrapper(self, fn, key):
        probe = self.probe(key)
        spanned = key in SPANNED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            probe.calls += 1
            if probe.depth:
                return fn(*args, **kwargs)
            probe.depth = 1
            if spanned:
                self._open.append(len(self.spans))
                self.spans.append([key, clock(), None,
                                   self._open[-2] if len(self._open) > 1 else None])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                probe.seconds += end - start
                probe.depth = 0
                if spanned:
                    self.spans[self._open.pop()][2] = end

        return wrapper

    def _canonicalize_wrapper(self, fn):
        """Like _wrapper, and also records each call's latency and outcome.

        The outcome is the number of search steps in the returned trace, or
        the name of the exception the call ended with.
        """
        inner = self._wrapper(fn, "canonical.canonicalize")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            start = clock()
            outcome = None
            try:
                result = inner(*args, **kwargs)
                trace = result[2]
                outcome = (trace.search_steps, len(trace))
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                self.canon_calls.append((clock() - start, outcome))

        return wrapper


def _key(fn):
    """Probe key "<module>.<qualname>" with the package prefix dropped."""
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__qualname__}"
