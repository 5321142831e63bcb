"""One benchmark worker: set up a workload, warm it up, run its closed loop.

Started by run.py as ``python3 bench/worker.py SPEC`` where SPEC is a JSON
object (see run.py).  The worker imports quadconc from the checkout's src/,
builds the workload's inputs, runs one discarded warm-up operation and then
timed operations, one after the other, either for ``seconds`` (and at least
one operation of every kind) or for exactly ``ops`` operations.  It prints
one JSON result line on stdout.
"""

import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import quadconc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(),
    }


def run(spec):
    """Run one worker described by `spec`; returns its result dict.

    With ``traced`` set, every timed operation is repeated at once with the
    tracer installed: the untraced and traced copies see the same inputs
    and nearly the same machine state, so their ratio is the tracing
    overhead.  cli-cold repeats its in-process replay instead, since spans
    cannot reach into the fresh interpreter of a cold call.
    """
    src = (ROOT / "src" / "quadconc").resolve()
    if Path(quadconc.__file__).resolve().parent != src:
        raise SystemExit("quadconc imported from %s, not %s" % (quadconc.__file__, src))
    cls = workloads.WORKLOADS[spec["workload"]]
    load = cls(spec["seed"], spec["tiny"], spec["tmpdir"], ROOT)
    target = getattr(load, "replay", None)
    if spec["traced"] and hasattr(load, "importtime"):
        load.importtime = True
    kind = getattr(load, "kind", lambda idx: "op")
    min_ops = len(getattr(load, "kinds", ())) or 1
    failures = []
    attempted = 0

    def checked(fn, idx):
        nonlocal attempted
        elapsed, errors = fn(idx)
        attempted += 1
        if errors:
            failures.append("op %d: %s" % (idx, "; ".join(errors)))
        return elapsed

    idx = spec["offset"]
    checked(load.op, idx)  # warm-up: checked, not timed
    tracer = spans.Tracer() if spec["traced"] else None
    durations, kinds, import_s, plain, traced = [], [], [], [], []
    start = time.perf_counter()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["t_spawn"]
    while True:
        idx += 1
        durations.append(checked(load.op, idx))
        kinds.append(kind(idx))
        if tracer is not None:
            import_s.append(getattr(load, "last_import_s", None))
            if target is not None:
                checked(target, idx)  # the first in-process run of an argv pays one-time costs
                plain.append(checked(target, idx))
            else:
                plain.append(durations[-1])
            tracer.install()
            try:
                traced.append(checked(target or load.op, idx))
            finally:
                tracer.uninstall()
        if spec["ops"] is not None:
            if len(durations) >= spec["ops"]:
                break
        elif time.perf_counter() - start >= spec["seconds"] and len(durations) >= min_ops:
            break

    who = resource.RUSAGE_CHILDREN if cls.rss_of_children else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "durations": durations,
        "kinds": kinds,
        "work_per_op": load.work_per_op,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "digest": getattr(load, "digest", None),
        "maxrss_kb": resource.getrusage(who).ru_maxrss,
        "env": environment(),
    }
    if tracer is not None:
        result.update(plain_durations=plain, traced_durations=traced, import_s=import_s,
                      layers=spans.summarize(tracer.spans))
        Path(spec["spans_out"]).write_text(json.dumps(tracer.spans))
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
