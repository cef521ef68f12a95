"""Command-line interface: configuration, orchestration, and file output.

Subcommands
-----------
simulate        split-step Monte-Carlo run; writes the mean field, the
                second moment and their standard errors in the binary
                tensor format plus a JSON run manifest
evolve-kernel   integrate a moment kernel read from a binary tensor file;
                writes snapshots, a CSV of conserved-quantity diagnostics
                and a JSON manifest (generators built, timings, guards
                and the diagnostics of every snapshot)
states          Fock-state Wigner/generating-function sweep (CSV), or the
                Gaussian stationarity residual table with --stationarity
screens         exact screen-statistics tables (per-mode variance,
                cross-mode covariance) as CSV
spectrum-table  CSV of the transverse PSD over a log-spaced range
validate        full cross-validation suite on the reference plan, or on
                the plan and source of --config; JSON + text report

Common flags: --config <path>, --seed <u64>, --out <dir>.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import states, validation
from .arrayio import (grid_metadata, read_array, write_array, write_in_place,
                      write_json)
from .grid import FrequencyGrid, Spectrum
from .moments import (KernelInputError, MomentKernel, evolve_kernel,
                      kernel_diagnostics, kernel_trace, step_guard,
                      step_guard_values)
from .phase_screen import as_u64, screen_statistics
from .spectrum import SpectrumKind, TurbulenceModel, psd_transverse
from .splitstep import PropagationPlan, ensemble_moments


class ConfigError(ValueError):
    """Schema or guard violation in a run configuration."""


_SCHEMA = {
    "grid": {
        "dim": int,
        "n": int,
        "delta_a": float,
        "wavelength": float,
    },
    "model": {
        "kind": str,
        "cn2": float,
        "outer_scale": float,
        "inner_scale": float,
    },
    "plan": {
        "z_total": float,
        "n_slabs": int,
        "n_realizations": int,
        "master_seed": int,
    },
    "source": {
        "type": str,
        "sigma_a": float,
        "amplitude": float,
    },
    "output_dir": str,
}

_REQUIRED = {
    "grid": ("dim", "n", "delta_a", "wavelength"),
    "model": ("kind", "cn2"),
    "plan": ("z_total",),
}

_PLAN_DEFAULTS = {"n_slabs": 64, "n_realizations": 500, "master_seed": 0}


@dataclass(frozen=True)
class RunConfig:
    """A loaded configuration: the guard-checked propagation plan, the
    Gaussian source, and where outputs go."""

    plan: PropagationPlan
    source_sigma_a: float
    source_amplitude: float
    output_dir: str = "."

    def source(self) -> Spectrum:
        return Spectrum.gaussian(self.plan.grid, self.source_sigma_a,
                                 self.source_amplitude)


def _check_type(value, expected, path):
    if expected is float:
        # NaN compares false, and an int beyond the float range is refused
        # before float() could overflow.
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not abs(value) <= sys.float_info.max):
            raise ConfigError(
                f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if expected is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, expected):
        raise ConfigError(
            f"{path}: expected {expected.__name__}, got {value!r}")
    return value


def _check_section(data, schema, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    out = {}
    for key, value in data.items():
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown field")
        out[key] = _check_type(value, schema[key], f"{path}.{key}")
    return out


def load_config(path) -> RunConfig:
    """Load and validate a JSON run configuration (strict schema)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # bad JSON or UTF-8, an int over 4300 digits
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown field")
    for section, keys in _REQUIRED.items():
        if section not in raw:
            raise ConfigError(f"{section}: required section missing")
        if not isinstance(raw[section], dict):
            raise ConfigError(f"{section}: expected an object")
        for key in keys:
            if key not in raw[section]:
                raise ConfigError(f"{section}.{key}: required field missing")

    grid_raw = _check_section(raw["grid"], _SCHEMA["grid"], "grid")
    model_raw = _check_section(raw["model"], _SCHEMA["model"], "model")
    plan_raw = dict(_PLAN_DEFAULTS)
    plan_raw.update(_check_section(raw["plan"], _SCHEMA["plan"], "plan"))
    source_raw = _check_section(raw.get("source", {}), _SCHEMA["source"],
                                "source")
    if source_raw.get("type", "gaussian") != "gaussian":
        raise ConfigError(f"source.type: unknown type "
                          f"{source_raw['type']!r}; expected 'gaussian'")
    if source_raw.get("sigma_a", 1.0) <= 0.0:
        raise ConfigError("source.sigma_a: must be > 0")

    try:
        grid = FrequencyGrid(grid_raw["dim"], grid_raw["n"],
                             grid_raw["delta_a"], grid_raw["wavelength"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    kinds = {k.value: k for k in SpectrumKind}
    if model_raw["kind"] not in kinds:
        raise ConfigError(
            f"model.kind: unknown kind {model_raw['kind']!r}; expected one "
            f"of {sorted(kinds)}")
    if model_raw["cn2"] < 0.0:
        raise ConfigError("model.cn2: must be >= 0")
    try:
        model = TurbulenceModel(kinds[model_raw["kind"]], model_raw["cn2"],
                                model_raw.get("outer_scale"),
                                model_raw.get("inner_scale", 0.0))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    if (model.kind is SpectrumKind.VON_KARMAN
            and model.outer_scale > 1.0 / grid.delta_a):
        warnings.warn("outer scale exceeds grid support (L0 > 1/delta_a)",
                      stacklevel=2)

    try:
        plan = PropagationPlan(grid, model, **plan_raw)
        plan.check_guards()
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    return RunConfig(
        plan=plan,
        source_sigma_a=source_raw.get("sigma_a",
                                      grid.n * grid.delta_a / 8.0),
        source_amplitude=source_raw.get("amplitude", 1.0),
        output_dir=_check_type(raw.get("output_dir", "."), str,
                               "output_dir"),
    )


def _out_dir(args, cfg: RunConfig | None) -> Path:
    if args.out is not None:
        path = Path(args.out)
    elif cfg is not None:
        path = Path(cfg.output_dir)
    else:
        path = Path(".")
    # One stat for the directory an earlier run made, not a refused mkdir.
    if not path.is_dir():
        path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_seed(cfg: RunConfig, args) -> RunConfig:
    if args.seed is None:
        return cfg
    return replace(cfg, plan=replace(cfg.plan, master_seed=args.seed))


def _write_csv(path, header, rows) -> None:
    # The csv module's own line ends (\r\n), written in one piece.
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_in_place(path, text.getvalue().encode())


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    cfg = _apply_seed(load_config(args.config), args)
    out = _out_dir(args, cfg)
    plan = cfg.plan
    t1 = time.perf_counter()
    stats = ensemble_moments(cfg.source(), plan)
    ensemble_s = time.perf_counter() - t1

    meta = grid_metadata(plan.grid, master_seed=plan.master_seed)
    write_array(out / "mean_field.bin", stats.mean_field, meta)
    write_array(out / "mean_field_se.bin",
                stats.mean_field_se.astype(np.complex128), meta)
    write_array(out / "second_moment.bin", stats.second_moment, meta)
    write_array(out / "second_moment_se.bin",
                stats.second_moment_se.astype(np.complex128), meta)

    manifest = {
        "master_seed": plan.master_seed,
        "n_realizations": plan.n_realizations,
        "n_slabs": plan.n_slabs,
        "z_total_m": plan.z_total,
        "ensemble_s": ensemble_s,
        "ensemble_workers": stats.workers,
        "wall_time_s": time.perf_counter() - t0,
        "guards": plan.guard_values(),
        "grid": meta["grid"],
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote ensemble moments for {plan.n_realizations} realizations "
          f"to {out} ({manifest['wall_time_s']:.1f} s)")
    return 0


def cmd_evolve_kernel(args) -> int:
    t0 = time.perf_counter()
    cfg = _apply_seed(load_config(args.config), args)
    out = _out_dir(args, cfg)
    plan = cfg.plan
    m, n = args.orders
    # The input is held as current alone, so the first span's output
    # replaces it in memory.
    try:
        current = MomentKernel((m, n), plan.grid, read_array(args.input)[0])
    except ValueError as exc:
        raise ConfigError(f"{args.input}: {exc}") from exc

    z_values = args.z_list
    # Every span's steps, checked before any file is written.  A step no
    # longer than plan.dz meets the guards load_config checked (both are
    # linear in the step); with plan.z_total 0 a span is one step, which
    # no check has seen.
    spans = []
    z_prev = 0.0
    for z in z_values:
        span = z - z_prev
        steps = 0
        if span > 0:
            dz_cfg = plan.dz if plan.z_total > 0 else span
            steps = max(1, int(np.ceil(span / dz_cfg)))
            if span / steps > plan.dz:
                try:
                    step_guard(plan.grid, plan.model, span / steps)
                except ValueError as exc:
                    raise ConfigError(f"plan: {exc}") from exc
        spans.append((z, span, steps))
        z_prev = z
    rows = []
    snapshots = []
    trace0 = kernel_trace(current).real if m == n else None
    # The trace of the snapshot in hand: the input's until a span evolves.
    trace = float("nan") if trace0 is None else trace0
    dz_max = 0.0
    evolve_s = 0.0
    # Every generator the spans used: evolve_kernel carries one from span
    # to span, so a command builds one.
    generators = []
    meta = grid_metadata(plan.grid, orders=[m, n])
    for z, span, steps in spans:
        evolved = filled = 0
        if span > 0:
            t1 = time.perf_counter()
            try:
                current = evolve_kernel(current, plan.model, span, steps)
            except KernelInputError as exc:
                # Only the first span checks: later ones evolve outputs.
                raise ConfigError(f"{args.input}: {exc}") from exc
            evolve_s += time.perf_counter() - t1
            dz_max = max(dz_max, span / steps)
            evolved, filled = current.sectors_evolved, current.sectors_filled
            if not any(g is current.generator for g in generators):
                generators.append(current.generator)
            if m == n:
                trace = kernel_trace(current).real
        write_array(out / f"kernel_z{z:g}.bin", current.values, meta)
        herm, mass = kernel_diagnostics(current)
        rows.append([z, trace, float("nan") if herm is None else herm, mass])
        snapshots.append({
            "z_m": z,
            "steps": steps,
            "sectors_evolved": evolved,
            "sectors_filled": filled,
            "trace_drift": (abs(trace - trace0) / abs(trace0)
                            if trace0 else None),
            "hermiticity_residual": herm,
            "boundary_mass_fraction": mass,
        })
    _write_csv(out / "kernel_evolution.csv",
               ["z_m", "trace", "hermiticity_residual",
                "boundary_mass_fraction"], rows)
    manifest = {
        "orders": [m, n],
        "generator_builds": len(generators),
        "evolve_s": evolve_s,
        "wall_time_s": time.perf_counter() - t0,
        "guards": step_guard_values(plan.grid, plan.model, dz_max),
        "snapshots": snapshots,
        "grid": meta["grid"],
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote {len(z_values)} kernel snapshots to {out}")
    return 0


def cmd_states(args) -> int:
    cfg = _apply_seed(load_config(args.config), args)
    out = _out_dir(args, cfg)
    grid = cfg.plan.grid

    if args.stationarity:
        rows = []
        for width in (2.0, 1.0, 3.0, 5.0):
            state = states.GaussianState.thermal(grid, width)
            rhs, fourth = states.gaussian_drift(state, cfg.plan.model)
            rows.append([width, float(np.max(np.abs(rhs))), fourth])
        _write_csv(out / "stationarity.csv",
                   ["kernel_width", "second_order_max_abs",
                    "fourth_order_residual"], rows)
        print(f"wrote stationarity table to {out}")
        return 0

    fock = states.FockSpec.normalized(grid, cfg.source().values)
    rows = []
    for r in np.linspace(0.0, 2.0, 101):
        alpha = Spectrum(grid, r * fock.profile)
        row = [r]
        for order in range(4):
            row.append(states.fock_wigner(order, fock, alpha))
        row.append(states.fock_generating(0.5, fock, alpha).real)
        rows.append(row)
    _write_csv(out / "fock_sweep.csv",
               ["alpha_scale", "w0", "w1", "w2", "w3",
                "generating_eta_0.5"], rows)
    print(f"wrote Fock-state sweep to {out}")
    return 0


def cmd_screens(args) -> int:
    cfg = _apply_seed(load_config(args.config), args)
    out = _out_dir(args, cfg)
    plan = cfg.plan
    stats = screen_statistics(plan.model, plan.grid, plan.dz,
                              plan.master_seed)
    freqs = plan.grid.axis_frequencies()
    target = stats.target_variance.ravel()
    variance = stats.variance.ravel()
    _write_csv(out / "screens_variance.csv",
               ["site", "frequency_cyc_per_m", "target_variance_m2",
                "exact_variance_m2"],
               [[i, freqs[i % plan.grid.n], target[i], variance[i]]
                for i in range(target.size)])
    _write_csv(out / "screens_cross.csv",
               ["site_a", "site_b", "abs_covariance_m2"],
               [[a, b, abs(cov)] for a, b, cov in stats.cross_pairs])
    print(f"wrote exact screen statistics to {out}; relative to the largest "
          f"target variance, max variance error "
          f"{stats.max_variance_error:.3e}, max cross-mode covariance "
          f"{stats.max_cross_covariance:.3e}")
    return 0


def cmd_spectrum_table(args) -> int:
    cfg = _apply_seed(load_config(args.config), args)
    out = _out_dir(args, cfg)
    grid = cfg.plan.grid
    a_lo = grid.delta_a / 10.0
    a_hi = 10.0 * grid.n * grid.delta_a / 2.0
    rows = []
    for a in np.geomspace(a_lo, a_hi, args.points):
        rows.append([a, psd_transverse(cfg.plan.model, a)])
    _write_csv(out / "spectrum_table.csv",
               ["a_cyc_per_m", "psd_transverse_m3"], rows)
    print(f"wrote {args.points}-point PSD table to {out}")
    return 0


def cmd_validate(args) -> int:
    if args.config is not None:
        cfg = _apply_seed(load_config(args.config), args)
        plan, source = cfg.plan, cfg.source()
    else:
        cfg, source = None, None
        plan = (validation.REFERENCE if args.seed is None
                else replace(validation.REFERENCE, master_seed=args.seed))
    out = _out_dir(args, cfg)
    report = validation.run_validate(plan, source)
    write_json(out / "validation_report.json", report.to_json_dict())
    text = report.to_text()
    write_in_place(out / "validation_report.txt", (text + "\n").encode())
    print(text)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------

def u64(text: str) -> int:
    """A --seed value: an integer in [0, 2^64)."""
    return as_u64(int(text), "seed")


def kernel_orders(text: str) -> tuple[int, int]:
    """An --orders value: m,n with m, n >= 0 and 1 <= m + n <= 4."""
    m, n = map(int, text.split(","))
    if min(m, n) < 0 or not 1 <= m + n <= 4:
        raise ValueError(text)
    return m, n


def distances(text: str) -> list[float]:
    """A --z-list value: comma-separated finite distances >= 0, sorted,
    with -0 read as 0 (the snapshot kernel_z0.bin)."""
    z = sorted(float(x) + 0.0 for x in text.split(","))
    if not all(0.0 <= x < np.inf for x in z):
        raise ValueError(text)
    return z


def table_points(text: str) -> int:
    """A --points value: an integer >= 2."""
    points = int(text)
    if points < 2:
        raise ValueError(text)
    return points


def _add_common(parser, config_required=True) -> None:
    parser.add_argument("--config", required=config_required,
                        help="path to the JSON run configuration")
    parser.add_argument("--seed", type=u64, default=None,
                        help="override the master seed (an integer in "
                             "[0, 2^64))")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config output_dir)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser with its subcommands' parsers, built once
    per process: argparse takes about 1.5 ms to build them, a tenth of a
    short in-process command, and parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="ipfe",
        description="moment-kernel evolution through turbulence with a "
                    "split-step Monte-Carlo cross-check")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="split-step ensemble run (binary moments + "
                            "manifest)")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evolve-kernel",
                       help="integrate a moment kernel from a binary file")
    _add_common(p)
    p.add_argument("--input", required=True,
                   help="binary tensor file with the initial kernel")
    p.add_argument("--orders", type=kernel_orders, default="1,1",
                   help="kernel orders as m,n with 1 <= m+n <= 4 (default "
                        "1,1)")
    p.add_argument("--z-list", type=distances, default="0,500,1000",
                   dest="z_list",
                   help="comma-separated snapshot distances in meters")
    p.set_defaults(func=cmd_evolve_kernel)

    p = sub.add_parser("states",
                       help="Fock-state sweep CSV, or --stationarity table")
    _add_common(p)
    p.add_argument("--stationarity", action="store_true",
                   help="emit the Gaussian stationarity residual table")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("screens",
                       help="exact phase-screen statistics tables (CSV)")
    _add_common(p)
    p.set_defaults(func=cmd_screens)

    p = sub.add_parser("spectrum-table",
                       help="transverse PSD over a log-spaced range (CSV)")
    _add_common(p)
    p.add_argument("--points", type=table_points, default=200,
                   help="number of table rows, at least 2 (default 200)")
    p.set_defaults(func=cmd_spectrum_table)

    p = sub.add_parser("validate",
                       help="run the full cross-validation suite")
    _add_common(p, config_required=False)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run the command that argv (sys.argv[1:] by default) names, as the
    command-line parser reads it, and return its exit status: 2 for a
    configuration error.  A usage error exits with status 2 and argparse's
    message."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
