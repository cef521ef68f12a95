"""False-alarm rate and power of the validation suite on correct code.

Usage (from the root of a checkout):

    python3 tools/referee_rates.py --label change \
        --out BENCH_referee_rates.json [--src DIR]

Runs ``ipfe.validation.run_validate`` at the reference plan for master
seeds 0-299, with the ``ipfe`` package of ``--src`` (default: this
checkout's ``src``), and records, per check, how many seeds fail it and
which.  Every failure is a false alarm, since the code under test is the
code the suite referees.

For the power, each seed's reference ensemble (one
``splitstep.ensemble_moments``, the bits ``run_validate`` draws) is
checked by ``check_first_moment`` and ``check_mutual_coherence`` against
plans whose cn2 is the reference's times 0.9, 0.95, 1.05 and 1.1.  A
failure there is a detection of the wrong cn2; the record gives, per
factor, the failures and failing seeds of each check and of each check
function as a whole (any of its checks failing).

The record also names the host, the Python and
numpy versions, the git commit of ``--src`` (with a flag for uncommitted
changes) and the sha256 of its ``ipfe/*.py`` files, and is stored under
``--label`` in ``--out``: other labels already in that file are kept, so
two trees can be recorded side by side.  About 0.15-0.2 s per seed on
a 2-vCPU host.
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
# cn2 factors of the plans the power checks compare the ensemble with.
FACTORS = (0.9, 0.95, 1.05, 1.1)


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


def failure_record(failing: dict, names) -> dict:
    return {name: {"failures": len(failing.get(name, [])),
                   "failing_seeds": failing.get(name, [])}
            for name in names}


def power_results(plan, source, stats):
    """(check function, its results) of the ensemble stats against plan."""
    from ipfe import validation

    yield ("check_first_moment",
           validation.check_first_moment(plan, source, stats))
    # check_mutual_coherence also returns its kernels.
    yield ("check_mutual_coherence",
           validation.check_mutual_coherence(plan, source, stats)[0])


def rates() -> dict:
    from ipfe.grid import Spectrum
    from ipfe.splitstep import ensemble_moments
    from ipfe.validation import (REFERENCE, REFERENCE_SOURCE_SIGMA_A,
                                 run_validate)

    source = Spectrum.gaussian(REFERENCE.grid, REFERENCE_SOURCE_SIGMA_A)
    failing: dict[str, list[int]] = {}
    # factor -> check or check function -> failing seeds, and the names.
    detected = {f: {} for f in FACTORS}
    power_names: list[str] = []
    suite = []
    names = None
    t0 = time.perf_counter()
    for seed in range(SEEDS):
        plan = replace(REFERENCE, master_seed=seed)
        with warnings.catch_warnings():
            # Every reference run warns about the kernels' boundary mass.
            warnings.simplefilter("ignore")
            report = run_validate(plan)
            stats = ensemble_moments(source, plan)
            power = {f: list(power_results(
                replace(plan, model=replace(plan.model,
                                            cn2=plan.model.cn2 * f)),
                source, stats)) for f in FACTORS}
        names = names or [c.name for c in report.checks]
        for check in report.checks:
            if check.applicable and not check.passed:
                failing.setdefault(check.name, []).append(seed)
        if not report.passed:
            suite.append(seed)
        for f, by_function in power.items():
            power_names = []
            for function, results in by_function:
                verdicts = [(r.name, r.passed) for r in results]
                verdicts.insert(0, (function, all(p for _, p in verdicts)))
                power_names += [name for name, _ in verdicts]
                for name, passed in verdicts:
                    if not passed:
                        detected[f].setdefault(name, []).append(seed)
    return {
        "seeds": [0, SEEDS - 1],
        "sweep_s": round(time.perf_counter() - t0, 2),
        "suite": {"failures": len(suite), "rate": len(suite) / SEEDS,
                  "failing_seeds": suite},
        "checks": failure_record(failing, names),
        "power": {f"cn2x{f:g}": failure_record(detected[f], power_names)
                  for f in FACTORS},
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
    for factor, detected in record["power"].items():
        print(f"  {factor}: " + ", ".join(
            f"{name} {c['failures']}" for name, c in detected.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
