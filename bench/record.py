"""Run every workload untraced and traced and write one trajectory entry.

    python3 bench/record.py --label baseline --out bench/trajectory/0001-baseline.json

Each entry holds the full record run.py prints (environment, metrics,
per-workload aliases and every layer figure) for both modes of every
workload.  Every entry is recorded the same way, at workloads.DEFAULT_SEED
and the run_seconds of BENCHMARK.json, so entries compare run by run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seed = workloads.DEFAULT_SEED
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    records = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=str(run.ROOT), check=True,
            )
            records.append(json.loads(proc.stdout.splitlines()[-2]))
            print("%s trace=%d done" % (workload, trace), file=sys.stderr)
    entry = {"label": args.label, "seconds": seconds, "records": records}
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
