"""False-alarm rate of the validation suite on correct code.

Usage (from the root of a checkout):

    python3 tools/referee_rates.py --label change \
        --out BENCH_referee_rates.json [--src DIR]

Runs ``ipfe.validation.run_validate`` at the reference plan for master
seeds 0-299, with the ``ipfe`` package of ``--src`` (default: this
checkout's ``src``), and records, per check, how many seeds fail it and
which.  Every failure is a false alarm, since the code under test is the
code the suite referees.  The record also names the host, the Python and
numpy versions, the git commit of ``--src`` (with a flag for uncommitted
changes) and the sha256 of its ``ipfe/*.py`` files, and is stored under
``--label`` in ``--out``: other labels already in that file are kept, so
two trees can be recorded side by side.  About 0.2 s per seed on a
2-vCPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 300


def git(src: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_record(src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "ipfe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git(src, "status", "--porcelain", "--", ".")
    return {"git_sha": git(src, "rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def rates() -> dict:
    from ipfe.validation import REFERENCE, run_validate

    failing: dict[str, list[int]] = {}
    suite = []
    names = None
    t0 = time.perf_counter()
    for seed in range(SEEDS):
        with warnings.catch_warnings():
            # Every reference run warns about the kernels' boundary mass.
            warnings.simplefilter("ignore")
            report = run_validate(replace(REFERENCE, master_seed=seed))
        names = names or [c.name for c in report.checks]
        for check in report.checks:
            if check.applicable and not check.passed:
                failing.setdefault(check.name, []).append(seed)
        if not report.passed:
            suite.append(seed)
    return {
        "seeds": [0, SEEDS - 1],
        "sweep_s": round(time.perf_counter() - t0, 2),
        "suite": {"failures": len(suite), "rate": len(suite) / SEEDS,
                  "failing_seeds": suite},
        "checks": {name: {"failures": len(failing.get(name, [])),
                          "failing_seeds": failing.get(name, [])}
                   for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="key of this record in --out")
    parser.add_argument("--out", default=str(ROOT / "BENCH_referee_rates"
                                             ".json"),
                        help="JSON file of records, updated in place")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the ipfe package to test")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import ipfe

    if Path(ipfe.__file__).resolve().parent != src / "ipfe":
        raise SystemExit(f"imported {ipfe.__file__}, not the ipfe of {src}")
    record = {
        "host": {"node": platform.node(), "platform": platform.platform(),
                 "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "source": source_record(src),
        **rates(),
    }
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = record
    # Checks stay in report order.
    out.write_text(json.dumps(data, indent=2) + "\n")
    by_check = ", ".join(f"{name} {c['failures']}"
                         for name, c in record["checks"].items()
                         if c["failures"])
    print(f"{args.label}: {record['suite']['failures']} of {SEEDS} "
          f"seeds fail; by check: {by_check or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
