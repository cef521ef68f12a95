"""Benchmark of the ipfe command line: one workload per run, closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reference-validate --seed 1 \
        --seconds 45 --trace 0

One process runs the workload's operations one after another, in process,
through ``ipfe.cli.main``, for about ``--seconds``, and checks the
outputs of every operation with the independent checkers in checks.py.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
(``setup_s``, ``wall_norm_s``, ``peak_rss_mb``) with ``--trace 0``,
the per-layer metrics of spans.py with ``--trace 1``.  The line before it
records the environment the run used; the run's record in .perfbench_out/
also holds the raw operation wall times and the host-speed probe times
that ``wall_norm_s`` is computed from.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
# Host-speed probe time that `wall_norm_s` is scaled to: a typical
# calibrate.py sample on the 2-vCPU VM the reference figures come from.
PROBE_REF_S = 0.75
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> dict:
    """Cap every BLAS/OpenMP thread variable at nproc.  Must run before
    numpy is imported, which reads them once."""
    cap = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cap):
            os.environ[var] = str(cap)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_ipfe():
    """Import ipfe from this checkout's src/, never from site-packages."""
    if not (SRC / "ipfe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ipfe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ipfe.cli
    if Path(ipfe.__file__).resolve().parent != SRC / "ipfe":
        sys.exit(f"perfbench: imported ipfe from {ipfe.__file__}")
    return ipfe.cli


def environment(threads: dict) -> dict:
    import numpy
    import scipy
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ipfe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "nproc": nproc(),
        "threads": threads,
        "platform": platform.platform(),
    }


def setup_probe(workload, seed: int, workdir: str) -> None:
    """What a user pays before the first command: interpreter start,
    imports, configuration load and writing the input files."""
    import_ipfe()
    workload().prepare(Path(workdir), seed)


def time_setup(args, workdir: Path) -> list[float]:
    """Run the set-up in fresh interpreters; the first run is a warm-up
    that leaves the bytecode caches filled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        t0 = time.perf_counter()
        subprocess.run(cmd + [str(probe_dir)], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples[1:]


def run_command(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class HostProbe:
    """A calibrate.py process; calling it returns one probe time."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent
                                 / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Loop:
    """Outcome of the closed loop: per-operation times of the operations
    that completed, and the failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.op_ids, self.walls, self.cpus, self.commands = [], [], [], []
        self.errors, self.wrong = [], []
        self.probes = []

    def normalized_walls(self) -> list[float]:
        """Each completed operation's wall time scaled by PROBE_REF_S over
        the mean of the probe times taken just before and just after it."""
        return [wall * PROBE_REF_S
                / ((self.probes[i] + self.probes[i + 1]) / 2)
                for i, wall in zip(self.op_ids, self.walls)]


def run_loop(cli, workload, seconds: float, tracer, probe) -> Loop:
    """Run operations one after another, checking each one's outputs
    outside the timed region, and stop at the operation boundary nearest
    to `seconds`: a run measures about `seconds` whether an operation
    takes 1 s or 15 s.  With a `probe`, the host's speed is sampled
    before the first operation and after every one."""
    import warnings

    loop = Loop()
    t_start = time.perf_counter()
    if probe is not None:
        loop.probes.append(probe())
    while True:
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(loop.walls) if loop.walls else 0.0
        if loop.attempted and elapsed + typical / 2 >= seconds:
            break
        if tracer is not None:
            tracer.current_op = loop.attempted
        loop.attempted += 1
        walls, code = {}, 0
        with warnings.catch_warnings():
            # The boundary-mass monitor warns on every (2,2) run; the
            # warning is the program's report, not a benchmark failure.
            warnings.simplefilter("ignore", UserWarning)
            cpu0, t_op = os.times(), time.perf_counter()
            for label, argv in workload.commands:
                t0 = time.perf_counter()
                try:
                    code = run_command(cli, argv)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    code = f"{type(exc).__name__}: {exc}"
                walls[label] = time.perf_counter() - t0
                if code != 0:
                    break
            op_wall, cpu1 = time.perf_counter() - t_op, os.times()
        if probe is not None:
            loop.probes.append(probe())
        if code != 0:
            loop.failed += 1
            loop.errors.append(f"op {loop.attempted}: {label} -> {code}")
            continue
        loop.op_ids.append(loop.attempted - 1)
        loop.walls.append(op_wall)
        loop.cpus.append(cpu1.user - cpu0.user + cpu1.system - cpu0.system)
        loop.commands.append(walls)
        try:
            found = workload.check()
        except (OSError, ValueError, KeyError) as exc:
            found = [f"unreadable output: {exc}"]
        loop.wrong += [f"op {loop.attempted}: {m}" for m in found]
    return loop


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["reference-validate", "ensemble-2d",
                                 "kernel-hierarchy"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the reference master "
                             "seed 20240117)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    threads = pin_threads()
    from workloads import REFERENCE_MASTER_SEED, WORKLOADS
    if args.seed is None:
        args.seed = REFERENCE_MASTER_SEED
    if args.setup_probe is not None:
        setup_probe(WORKLOADS[args.workload], args.seed, args.setup_probe)
        return 0

    cli = import_ipfe()
    import spans

    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    setup, tracer = [], None
    try:
        if not args.trace:
            setup = time_setup(args, workdir)
        workload = WORKLOADS[args.workload]()
        workload.prepare(workdir, args.seed)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            loop = run_loop(cli, workload, args.seconds, tracer, None)
        else:
            with HostProbe() as probe:
                loop = run_loop(cli, workload, args.seconds, None, probe)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = {}
    if args.trace:
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        if loop.walls:
            values = spans.layer_metrics(
                tracer, dict(zip(loop.op_ids, loop.walls)))
            coverage = values["trace.self_coverage"]
            if abs(coverage - 1.0) > 0.05:
                loop.wrong.append(f"layer span self times cover "
                                  f"{coverage:.4f} of the traced wall time")
    elif loop.walls:
        values = {"setup_s": statistics.median(setup),
                  "wall_norm_s": statistics.median(loop.normalized_walls()),
                  "peak_rss_mb": peak_rss_mb,
                  "wall_s": statistics.median(loop.walls)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed} if values else {}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(threads),
        "values": values,
        "setup_samples_s": setup, "op_walls_s": loop.walls,
        "op_cpu_s": loop.cpus, "probe_s": loop.probes,
        "command_walls_s": loop.commands,
        "errors": loop.errors, "wrong": loop.wrong,
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for message in loop.errors + loop.wrong:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"correct": bool(loop.walls) and not loop.wrong,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
