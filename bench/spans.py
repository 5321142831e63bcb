"""In-memory span recorder for the benchmark's traced mode.

The recorder wraps public quadconc functions in the namespace of the module
that calls them (``quadconc.cli.sample``, ``quadconc.spectral.reduce``, ...).
Each call becomes one span: name, start, end, parent span and a few
attributes taken from the arguments.  Spans stay in memory until the run
ends; ``summarize`` then turns them into per-layer self times and counts.
Single-threaded by design: the benchmark drives one closed loop.
"""

import time

import quadconc.cli
from quadconc import bounds, mgf, oracle, spectral


def _reduce_attrs(args, kwargs):
    return {"p": args[0].p}


def _sample_attrs(args, kwargs):
    return {"normals": args[0].p * int(args[1])}


def _grid_attrs(args, kwargs):
    return {"points": int(args[1])}


# (module, attribute, span name, attribute extractor).  The cli entries are
# the names cli.py bound at import; the others are the attributes the
# benchmark itself, and mgf.envelope_grid_check, look up at call time.
WRAPPED = (
    (quadconc.cli, "main", "cli.main", None),
    (quadconc.cli, "load_document", "cli.load_document", None),
    (quadconc.cli, "spectral_reduce", "spectral.reduce", _reduce_attrs),
    (quadconc.cli, "form_stats", "bounds.form_stats", None),
    (quadconc.cli, "upper_threshold", "bounds.threshold", None),
    (quadconc.cli, "lower_threshold", "bounds.threshold", None),
    (quadconc.cli, "tail_exponent", "bounds.tail_exponent", None),
    (quadconc.cli, "sample", "oracle.sample", _sample_attrs),
    (quadconc.cli, "empirical_tail", "oracle.empirical_tail", None),
    (quadconc.cli, "envelope_grid_check", "mgf.envelope_grid_check", _grid_attrs),
    (spectral, "reduce", "spectral.reduce", _reduce_attrs),
    (bounds, "form_stats", "bounds.form_stats", None),
    (bounds, "upper_threshold", "bounds.threshold", None),
    (bounds, "lower_threshold", "bounds.threshold", None),
    (oracle, "cdf_cf", "oracle.cdf_cf", None),
    (mgf, "envelope_grid_check", "mgf.envelope_grid_check", _grid_attrs),
    (mgf, "form_stats", "bounds.form_stats", None),
)


class Tracer:
    """Records a span per call of every function in WRAPPED while installed."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, attrs, raised]
        self.spans = []
        self._stack = []
        self._originals = []

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            if attrs is not None:
                span[4] = attrs(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        for module, attr, name, attrs in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def summarize(spans):
    """Per span name: calls, raised, total self time, durations and attributes.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers = {}
    for k, (name, start, end, _, attrs, raised) in enumerate(spans):
        layer = layers.setdefault(
            name, {"calls": 0, "failed": 0, "self_s": 0.0, "durations": [], "attrs": []}
        )
        layer["calls"] += 1
        layer["failed"] += int(raised)
        layer["self_s"] += (end - start) - child_time[k]
        layer["durations"].append(end - start)
        layer["attrs"].append(attrs)
    return layers
