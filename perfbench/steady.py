"""Steadiness check: run each workload in two sets and compare.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--trace]

Every workload in BENCHMARK.json is run ten times in each of two sets,
each run ``perfbench/run.py`` for ``run_seconds`` with its own seed; the
sets alternate run by run.  For every end-to-end metric the script prints,
per set, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, and says whether that spread
is below a third of the metric's bound in BENCHMARK.json (``setup_s`` is
exempt) and whether the two sets' medians differ by no more than the
bound, in either direction.  It also checks that the share of failed
operations is the same in both sets.  With ``--trace`` it makes one traced
run per workload and prints the tracing overhead, traced minus untraced
``wall_s``.  A summary is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def run_once(workload, seed, trace) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def raw_wall(workload, seed) -> float:
    """The median raw operation wall time of an untraced run's record."""
    path = ROOT / ".perfbench_out" / f"run-{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())["values"]["wall_s"]


def summarize(workload, first, second) -> tuple[dict, bool]:
    ok = True
    out = {}
    for metric in BENCH["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        rows = []
        for i, runs in enumerate((first, second)):
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row = {"values": vals, "median": med, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / med}
            steady = name == "setup_s" or row["spread"] < bound / 3
            ok &= steady
            print(f"{workload:20s} {name:14s} set{i} median {med:.6g}"
                  f" q1 {q1:.6g} q3 {q3:.6g} spread {row['spread']:.4f}"
                  f" bound/3 {bound / 3:.4f} {'ok' if steady else 'WIDE'}")
            rows.append(row)
        diff = (rows[1]["median"] - rows[0]["median"]) / rows[0]["median"]
        agree = abs(diff) <= bound
        ok &= agree
        print(f"{workload:20s} {name:14s} set1 vs set0 {diff:+.4f} "
              f"(bound {bound}) {'agree' if agree else 'DISAGREE'}")
        out[name] = rows
    shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
              for s in (first, second)]
    correct = all(r["correct"] for r in first + second)
    ok &= shares[0] == shares[1] and correct
    print(f"{workload:20s} failed shares {shares} correct {correct}")
    out["failed_shares"] = shares
    out["correct"] = correct
    return out, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload")
    args = parser.parse_args()

    summary = {}
    all_ok = True
    for workload in (w["name"] for w in BENCH["workloads"]):
        first, second = [], []
        for i in range(RUNS):
            first.append(run_once(workload, 1000 + i, 0))
            second.append(run_once(workload, 2000 + i, 0))
        summary[workload], ok = summarize(workload, first, second)
        all_ok &= ok
        if args.trace:
            traced = run_once(workload, 1000, 1)
            untraced = statistics.median(
                raw_wall(workload, seed)
                for seed in (*range(1000, 1000 + RUNS),
                             *range(2000, 2000 + RUNS)))
            wall = traced["metrics"]["trace.wall_s"]["value"]
            cover = traced["metrics"]["trace.self_coverage"]["value"]
            print(f"{workload:20s} traced wall_s {wall:.4f} untraced "
                  f"{untraced:.4f} overhead {wall - untraced:+.4f} s "
                  f"({(wall - untraced) / untraced:+.2%}); layer span self "
                  f"times cover {cover:.4f} of the traced wall; correct "
                  f"{traced['correct']}")
            summary[workload]["trace"] = traced
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"steady: {'all within bounds' if all_ok else 'NOT steady'}; "
          f"summary in {path.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
