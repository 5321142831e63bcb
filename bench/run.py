"""quadconc benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload verify-wide --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; quadconc is imported from its src/.
Workloads are closed loops driven by one client: one operation at a time,
the next only after the previous one returns.  See bench/README.md.

--trace 0 (end to end): three fresh worker processes run one after the
other, each setting up, warming up and then timing operations for a third
of --seconds.  Reports op_p50_s, ops_per_s, setup_s and peak_rss_mb.

--trace 1 (per layer): one worker runs a fixed number of operations
(TRACED_OPS, so counts repeat exactly for a seed; --seconds is not used)
and repeats each at once with quadconc's public functions wrapped to record
spans.  Import times come from ``python -X importtime`` in fresh
interpreters.

Stdout ends with a metric table, one JSON line holding the full record
(environment, per-workload aliases, every layer figure) and, last, the
summary line {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 when every operation was measured, whether or not its checks passed.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "verify-wide", "verify-fine", "matrix-exact")
UNTRACED_WORKERS = 3
IMPORT_PROBES = 3
DEADLINE_S = 170.0

# operations of a traced run, each done untraced and then traced.  A fixed
# count, not a time limit, so every count metric repeats exactly for a seed.
TRACED_OPS = {"cli-cold": 11, "verify-wide": 6, "verify-fine": 8, "matrix-exact": 12}

END_TO_END = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name of one operation's unit of work, and the workload's own names for
# op_p50_s and the work rate (the work rate is ops_per_s times work_per_op)
ALIASES = {
    "cli-cold": ("cli_call_p50_s", "cli_calls_per_s"),
    "verify-wide": ("verify_p50_s", "verify_draws_per_s"),
    "verify-fine": ("verify_p50_s", "verify_draws_per_s"),
    "matrix-exact": ("form_p50_s", "forms_per_s"),
}

LAYERS = (
    "cli.main",
    "cli.load_document",
    "spectral.reduce",
    "bounds.form_stats",
    "bounds.threshold",
    "oracle.sample",
    "oracle.empirical_tail",
    "oracle.cdf_cf",
    "mgf.envelope_grid_check",
)
IMPORTS = {
    "import.quadconc_s": "quadconc",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_stats_s": "scipy.stats",
    "import.numpy_s": "numpy",
}
COUNTS = (
    ("spectral.reduce.calls", "spectral.reduce", "calls"),
    ("bounds.threshold.calls", "bounds.threshold", "calls"),
    ("oracle.sample.normals", "oracle.sample", "normals"),
    ("oracle.empirical_tail.calls", "oracle.empirical_tail", "calls"),
    ("oracle.cdf_cf.calls", "oracle.cdf_cf", "calls"),
    ("oracle.cdf_cf.failed", "oracle.cdf_cf", "failed"),
)
PER_LAYER = dict(
    [(name, "s") for name in IMPORTS]
    + [(layer + ".self_frac", "frac") for layer in LAYERS]
    + [(name, "count") for name, _, _ in COUNTS]
    + [("trace.overhead_frac", "frac")]
)


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed check)."""


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def spawn_worker(spec, deadline):
    """Run one worker process to completion and return its result dict."""
    spec = dict(spec, t_spawn=time.clock_gettime(time.CLOCK_MONOTONIC))
    # own session, so a timeout also ends the CLI processes the worker started
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT), start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker for %s did not finish in time" % spec["workload"])
    if proc.returncode != 0:
        raise BenchError("worker for %s exited %d" % (spec["workload"], proc.returncode))
    return json.loads(out.splitlines()[-1])


def parse_importtime(stderr):
    """Cumulative seconds per module from ``-X importtime`` output, and the other lines."""
    cumulative, rest = {}, []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m:
            cumulative.setdefault(m.group(3), int(m.group(2)) * 1e-6)
        elif not line.startswith("import time:"):
            rest.append(line)
    return cumulative, "\n".join(rest)


def import_times(deadline):
    """Median cumulative import time of each module in IMPORTS, in seconds."""
    code = "import quadconc, scipy.integrate, scipy.stats"
    samples = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            stderr=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT),
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError("import probe exited %d" % proc.returncode)
        cumulative, _ = parse_importtime(proc.stderr)
        for name, module in IMPORTS.items():
            samples[name].append(cumulative[module])
    return {name: statistics.median(vals) for name, vals in samples.items()}


def check_digests(results):
    """Verify reports must be byte-identical across workers; returns failures."""
    digests = [r["digest"] for r in results]
    if any(d != digests[0] for d in digests):
        return ["report digests differ across workers: %s" % ", ".join(map(str, digests))]
    return []


def end_to_end(workload, results):
    """Medians per kind of operation, averaged over the kinds.

    With one kind (every workload but matrix-exact) op_p50_s is the median
    operation and ops_per_s is operations over their summed time.  With
    several, each kind weighs the same however many of it the run timed.
    """
    by_kind = {}
    for r in results:
        for kind, d in zip(r["kinds"], r["durations"]):
            by_kind.setdefault(kind, []).append(d)
    work = results[0]["work_per_op"]
    op_p50_s = statistics.fmean(statistics.median(d) for d in by_kind.values())
    ops_per_s = 1.0 / statistics.fmean(statistics.fmean(d) for d in by_kind.values())
    metrics = {
        "op_p50_s": op_p50_s,
        "ops_per_s": ops_per_s,
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024.0,
    }
    p50_alias, rate_alias = ALIASES[workload]
    details = {
        "ops": sum(len(d) for d in by_kind.values()),
        "work_per_op": work,
        p50_alias: op_p50_s,
        rate_alias: ops_per_s * work,
        "setup_s_each": [r["setup_s"] for r in results],
    }
    if len(by_kind) > 1:
        details["kinds"] = {
            kind: {"ops": len(d), "p50_s": statistics.median(d)} for kind, d in sorted(by_kind.items())
        }
    return metrics, details


def per_layer(workload, result, imports):
    layers = result["layers"]
    ops = len(result["durations"])
    # shares are of the operation the end-to-end metrics time: the traced
    # repeat, or for cli-cold the cold call whose in-process part was traced
    timed = result["durations"] if workload == "cli-cold" else result["traced_durations"]
    op_total = sum(timed)

    def layer(name):
        return layers.get(name, {"calls": 0, "failed": 0, "self_s": 0.0, "durations": [], "attrs": []})

    metrics = dict(imports)
    for name in LAYERS:
        metrics[name + ".self_frac"] = layer(name)["self_s"] / op_total
    for metric, name, field in COUNTS:
        info = layer(name)
        if field in ("calls", "failed"):
            metrics[metric] = info[field]
        else:
            metrics[metric] = sum(a[field] for a in info["attrs"])
    metrics["trace.overhead_frac"] = (
        sum(result["traced_durations"]) / sum(result["plain_durations"]) - 1.0
    )

    # every figure the layers give, per operation, for sizing later claims
    detail = {"ops": ops, "op_total_s": op_total, "layers": {}}
    for name in sorted(layers):
        info = layers[name]
        entry = {
            "calls": info["calls"],
            "failed": info["failed"],
            "self_s": info["self_s"] / ops,
            "self_frac": info["self_s"] / op_total,
            "p50_s": statistics.median(info["durations"]),
            "per_call_s": info["self_s"] / info["calls"],
        }
        for key in ("normals", "points"):
            total = sum((a or {}).get(key, 0) for a in info["attrs"])
            if total:
                entry[key] = total
                entry[key + "_per_s"] = total / info["self_s"]
        by_p = {}
        for dur, attrs in zip(info["durations"], info["attrs"]):
            if attrs and "p" in attrs:
                by_p.setdefault(attrs["p"], []).append(dur)
        for p, durs in sorted(by_p.items()):
            entry["p%d_p50_s" % p] = statistics.median(durs)
        detail["layers"][name] = entry
    detail["untraced_op_p50_s"] = statistics.median(result["durations"])
    if workload == "cli-cold":
        # each cold call reported its own import time, so the share pairs
        # the two figures call by call (a call that failed early has none)
        pairs = [(i, d) for i, d in zip(result["import_s"], timed) if i is not None]
        if pairs:
            detail["cold_import_p50_s"] = statistics.median(i for i, _ in pairs)
            detail["import_share_of_call"] = sum(i for i, _ in pairs) / sum(d for _, d in pairs)
    return metrics, detail


def environment(traced, seed, worker_env):
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quadconc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return dict(
        commit=commit,
        source_sha256=digest.hexdigest(),
        seed=seed,
        traced=bool(traced),
        nproc=os.cpu_count(),
        cpu=cpu,
        python=platform.python_version(),
        **worker_env,
    )


def measure(workload, seed, seconds, trace, tiny, scratch):
    """Run the workers for one benchmark run; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    spec = dict(workload=workload, seed=seed, tiny=tiny, traced=bool(trace), offset=0,
                ops=None, seconds=None, spans_out=None)
    results = []
    if trace:
        ops = 1 if tiny else TRACED_OPS[workload]
        spans_out = scratch.parent / ("spans-%s-seed%d.json" % (workload, seed))
        results.append(spawn_worker(
            dict(spec, tmpdir=tempfile.mkdtemp(dir=scratch), ops=ops, spans_out=str(spans_out)),
            deadline))
        metrics, details = per_layer(workload, results[0], import_times(deadline))
        units = PER_LAYER
    else:
        for j in range(UNTRACED_WORKERS):
            tmpdir = tempfile.mkdtemp(dir=scratch)
            results.append(spawn_worker(
                dict(spec, tmpdir=tmpdir, offset=1000 * j, seconds=seconds / UNTRACED_WORKERS),
                deadline))
        metrics, details = end_to_end(workload, results)
        units = END_TO_END
    mismatch = check_digests(results)
    failures = [f for r in results for f in r["failures"]] + mismatch
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) + len(mismatch)
    details["failed_frac"] = failed / attempted
    return {
        "workload": workload,
        "env": environment(trace, seed, results[0]["env"]),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="quadconc benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "quadconc" / "__init__.py").is_file():
        print("bench: no quadconc sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny, scratch)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in record["failures"]:
        print("check failed: %s" % failure, file=sys.stderr)
    for name, metric in record["metrics"].items():
        print("%-34s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(record))
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
