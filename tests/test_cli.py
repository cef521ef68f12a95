"""Configuration loading and command-line entry point tests."""

import csv
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ipfe
from ipfe import cli, moments, validation
from ipfe.arrayio import read_array, write_array
from ipfe.cli import ConfigError, build_parser, load_config, main
from ipfe.grid import FrequencyGrid, Spectrum
from ipfe.moments import step_guard_values
from ipfe.spectrum import psd_lattice

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" \
    / "reference.json"


def write_config(tmp_path, **overrides):
    cfg = {
        "grid": {"dim": 1, "n": 8, "delta_a": 0.25, "wavelength": 1.55e-6},
        "model": {"kind": "von_karman", "cn2": 9.2e-15, "outer_scale": 1.0},
        "plan": {"z_total": 1000.0, "n_slabs": 32, "n_realizations": 8,
                 "master_seed": 7},
        "source": {"sigma_a": 0.5},
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_minimal_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({
        "grid": {"dim": 1, "n": 8, "delta_a": 0.25, "wavelength": 1.55e-6},
        "model": {"kind": "von_karman", "cn2": 0.0, "outer_scale": 1.0},
        "plan": {"z_total": 100.0},
    }))
    cfg = load_config(path)
    assert cfg.plan.n_slabs == 64
    assert cfg.plan.n_realizations == 500
    assert cfg.plan.master_seed == 0
    assert cfg.output_dir == "."
    # The default width is n * delta_a / 8, the width of the built source.
    assert np.array_equal(cfg.source.values,
                          Spectrum.gaussian(cfg.plan.grid, 0.25).values)


def test_reference_config_is_the_validation_reference():
    cfg = load_config(REFERENCE_CONFIG)
    assert cfg.plan == validation.REFERENCE
    source = Spectrum.gaussian(validation.REFERENCE.grid,
                               validation.REFERENCE_SOURCE_SIGMA_A)
    assert np.array_equal(cfg.source.values, source.values)


def test_load_config_rejects_unknown_and_bad_fields(tmp_path):
    with pytest.raises(ConfigError, match="model.bogus: unknown field"):
        load_config(write_config(tmp_path, model={"bogus": 1}))
    with pytest.raises(ConfigError, match="model: cn2 must be >= 0"):
        load_config(write_config(tmp_path, model={"cn2": -1.0}))
    with pytest.raises(ConfigError,
                       match="model: 'kolmo' is not a valid SpectrumKind"):
        load_config(write_config(tmp_path, model={"kind": "kolmo"}))
    with pytest.raises(ConfigError, match="grid.n: expected an integer"):
        load_config(write_config(tmp_path, grid={"n": 8.5}))
    # task and tolerances were never read, so they are refused.
    with pytest.raises(ConfigError, match="task: unknown field"):
        load_config(write_config(tmp_path, task="simulate"))
    with pytest.raises(ConfigError, match="tolerances: unknown field"):
        load_config(write_config(
            tmp_path, tolerances={"mutual-coherence/monte-carlo": 0.001}))
    with pytest.raises(ConfigError, match="source.type"):
        load_config(write_config(tmp_path, source={"type": "flat"}))
    assert np.array_equal(
        load_config(write_config(tmp_path,
                                 source={"type": "gaussian"})).source.values,
        Spectrum.gaussian(FrequencyGrid(1, 8, 0.25, 1.55e-6), 0.5).values)
    no_z = tmp_path / "no_z.json"
    no_z.write_text(json.dumps({
        "grid": {"dim": 1, "n": 8, "delta_a": 0.25, "wavelength": 1.55e-6},
        "model": {"kind": "von_karman", "cn2": 0.0, "outer_scale": 1.0},
        "plan": {"n_slabs": 4},
    }))
    with pytest.raises(ConfigError, match="plan.z_total: required"):
        load_config(no_z)
    with pytest.raises(ConfigError, match="not valid JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        load_config(bad)
    # A missing file and an integer longer than Python converts from text
    # ended in tracebacks.
    with pytest.raises(ConfigError, match="missing.json: cannot read"):
        load_config(tmp_path / "missing.json")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        huge = tmp_path / "huge.json"
        huge.write_text('{"grid": ' + "1" * (limit + 1) + "}")
        with pytest.raises(ConfigError, match="huge.json: not valid JSON"):
            load_config(huge)


def test_load_config_guard_violation(tmp_path):
    path = write_config(tmp_path, model={"cn2": 1e-11},
                        plan={"z_total": 1000.0, "n_slabs": 16})
    with pytest.raises(ConfigError, match="plan: .*guard"):
        load_config(path)


def outer_scale_warnings(run):
    """The outer-scale warnings run() shows under Python's default filter
    (each warning location once), with a fresh registry."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        run()
    return [w for w in caught if "outer scale" in str(w.message)]


def test_load_config_outer_scale_warning(tmp_path):
    # The configuration loads without the warning: spectrum.psd_lattice
    # raises it, and loading reads only the lattice sum of the guards.
    # tiny cn2 keeps the weak-scattering guard satisfied at this big L0
    path = write_config(tmp_path, model={"outer_scale": 100.0,
                                         "cn2": 1e-22})
    assert outer_scale_warnings(lambda: load_config(path)) == []
    plan = load_config(path).plan
    assert len(outer_scale_warnings(
        lambda: psd_lattice(plan.model, plan.grid))) == 1


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
@pytest.mark.parametrize("command, flags, count", [
    ("simulate", [], 1),
    ("evolve-kernel", ["--z-list", "0,500,1000"], 1),
    ("validate", [], 1),
    ("spectrum-table", [], 0),
    ("states", [], 0),
])
def test_outer_scale_warning_once_from_commands_that_form_the_lattice(
        tmp_path, command, flags, count):
    path = write_config(tmp_path, model={"outer_scale": 100.0,
                                         "cn2": 1e-22})
    grid = FrequencyGrid(1, 8, 0.25, 1.55e-6)
    kernel = tmp_path / "init.bin"
    write_array(kernel, np.diag(np.exp(-grid.freq_sq())).astype(complex))
    if command == "evolve-kernel":
        flags = flags + ["--input", str(kernel)]
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    caught = outer_scale_warnings(lambda: main(argv + flags))
    assert len(caught) == count


def test_parser_rejects_threads_flag(tmp_path):
    # --threads only ever set numba's thread count; with numba gone the
    # flag is refused rather than recorded as if it had an effect.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--config",
                                   str(write_config(tmp_path)),
                                   "--threads", "2"])


PARSE_CASES = {
    "evolve": (["evolve-kernel", "--config", "c.json", "--input", "k.bin",
                "--orders", "2,2", "--z-list", "0,500,1000", "--out", "o"],
               {"command": "evolve-kernel", "config": "c.json",
                "input": "k.bin", "orders": (2, 2),
                "z_list": [0.0, 500.0, 1000.0], "out": "o", "seed": None}),
    "abbrev-seed": (["evolve-kernel", "--conf", "c.json", "--inp=k.bin",
                     "--seed", "3"],
                    {"config": "c.json", "input": "k.bin", "seed": 3,
                     "orders": (1, 1)}),
    "simulate": (["simulate", "--config", "c.json"],
                 {"command": "simulate", "config": "c.json", "out": None}),
    "validate": (["validate"], {"command": "validate", "config": None}),
    # The screens statistics are exact: --samples is no longer an option.
    "samples-few": (["screens", "--config", "c.json", "--samples", "5"],
                    (2, "ipfe: error: unrecognized arguments: --samples 5")),
    "unknown-flag": (["evolve-kernel", "--config", "c.json", "--input",
                      "k.bin", "--bogus"],
                     (2, "ipfe: error: unrecognized arguments: --bogus")),
    "extra-positional": (["evolve-kernel", "--config", "c.json", "extra",
                          "--input", "k.bin"],
                         (2, "ipfe: error: unrecognized arguments: extra")),
    "missing-input": (["evolve-kernel", "--config", "c.json"],
                      (2, "ipfe evolve-kernel: error: the following "
                          "arguments are required: --input")),
    "sub-help": (["evolve-kernel", "-h"], (0, "usage: ipfe evolve-kernel")),
    "unknown-command": (["bogus"],
                        (2, "ipfe: error: argument command: invalid "
                            "choice: 'bogus'")),
    "help": (["-h"], (0, "usage: ipfe [-h]")),
    "empty": ([], (2, "ipfe: error: the following arguments are required: "
                      "command")),
}


@pytest.mark.parametrize("argv, outcome", PARSE_CASES.values(),
                         ids=PARSE_CASES.keys())
def test_parse_args_matches_the_full_parser(capsys, argv, outcome):
    # main parses argv with the command-line parser: a command gets the
    # parser's namespace, abbreviated flags included; a usage error exits
    # with status 2 and argparse's message on stderr, and help with status
    # 0 and the usage on stdout.
    if isinstance(outcome, dict):
        args = build_parser().parse_args(argv)
        assert {key: getattr(args, key) for key in outcome} == outcome
        assert args.func is getattr(cli, "cmd_"
                                    + args.command.replace("-", "_"))
        return
    status, message = outcome
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == status
    assert message in (err if status else out)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_spectrum_table_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "psd"
    assert main(["spectrum-table", "--config", str(cfg), "--out", str(out),
                 "--points", "20"]) == 0
    rows = read_csv(out / "spectrum_table.csv")
    assert rows[0] == ["a_cyc_per_m", "psd_transverse_m3"]
    assert len(rows) == 21
    assert float(rows[1][1]) > float(rows[-1][1]) > 0.0


def test_states_commands(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "states"
    assert main(["states", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "fock_sweep.csv")
    assert len(rows) == 102
    assert float(rows[1][2]) == pytest.approx(-1.0)  # w1 at alpha = 0

    assert main(["states", "--config", str(cfg), "--out", str(out),
                 "--stationarity"]) == 0
    srows = read_csv(out / "stationarity.csv")
    assert len(srows) == 5
    assert all(float(r[1]) < 1e-10 for r in srows[1:])


def test_screens_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "scr"
    assert main(["screens", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "screens_variance.csv")
    assert rows[0] == ["site", "frequency_cyc_per_m", "target_variance_m2",
                       "exact_variance_m2"]
    assert len(rows) == 9
    for row in rows[1:]:
        target, variance = float(row[2]), float(row[3])
        assert abs(variance - target) <= 1e-15 * target
    cross = read_csv(out / "screens_cross.csv")
    assert cross[0] == ["site_a", "site_b", "abs_covariance_m2"]
    assert len(cross) == 65
    assert "max variance error" in capsys.readouterr().out


def test_screens_command_2d_frequency_columns(tmp_path):
    # One frequency column per grid axis, from the site's lattice
    # coordinates: sites 0 and 8 of a 2-D n=8 grid are rows 0 and 1.
    cfg = write_config(tmp_path, grid={"dim": 2},
                       plan={"n_slabs": 64, "z_total": 1000.0})
    out = tmp_path / "scr"
    assert main(["screens", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "screens_variance.csv")
    assert rows[0] == ["site", "frequency_x_cyc_per_m",
                       "frequency_y_cyc_per_m", "target_variance_m2",
                       "exact_variance_m2"]
    assert len(rows) == 65
    grid = FrequencyGrid(2, 8, 0.25, 1.55e-6)
    freqs = grid.axis_frequencies()
    assert rows[1][1:3] != rows[9][1:3]
    for row in rows[1:]:
        i, j = np.unravel_index(int(row[0]), grid.shape)
        assert [float(row[1]), float(row[2])] == [freqs[i], freqs[j]]


def test_screens_seed_flag_is_the_configured_seed(tmp_path):
    # --seed 11 on a seed-7 file writes the bytes a seed-11 file writes;
    # the cross-mode site pairs are drawn from the seed.
    flagged = write_config(tmp_path)
    (tmp_path / "b").mkdir()
    configured = write_config(tmp_path / "b", plan={"master_seed": 11})
    runs = {"flag": ["--config", str(flagged), "--seed", "11"],
            "file": ["--config", str(configured)],
            "seed7": ["--config", str(flagged)]}
    for name, flags in runs.items():
        assert main(["screens", *flags, "--out", str(tmp_path / name)]) == 0
    for table in ("screens_variance.csv", "screens_cross.csv"):
        assert (tmp_path / "flag" / table).read_bytes() \
            == (tmp_path / "file" / table).read_bytes()
    assert (tmp_path / "flag" / "screens_cross.csv").read_bytes() \
        != (tmp_path / "seed7" / "screens_cross.csv").read_bytes()


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_evolve_kernel_command(tmp_path):
    cfg = write_config(tmp_path)
    grid = FrequencyGrid(1, 8, 0.25, 1.55e-6)
    init = np.diag(np.exp(-grid.freq_sq())).astype(complex) \
        * grid.delta_weight
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, init)
    out = tmp_path / "evolve"
    assert main(["evolve-kernel", "--config", str(cfg),
                 "--input", str(kernel_path), "--orders", "1,1",
                 "--z-list", "0,500,1000", "--out", str(out)]) == 0
    rows = read_csv(out / "kernel_evolution.csv")
    assert len(rows) == 4
    traces = [float(r[1]) for r in rows[1:]]
    assert traces[1] == pytest.approx(traces[0], rel=1e-8)
    assert traces[2] == pytest.approx(traces[0], rel=1e-8)
    snap, meta = read_array(out / "kernel_z1000.bin")
    assert snap.shape == (8, 8)
    assert meta["orders"] == [1, 1]
    first, _ = read_array(out / "kernel_z0.bin")
    assert np.array_equal(first, init)
    manifest = json.loads((out / "manifest.json").read_text())
    # The kernel is evolved on the calling thread: no worker count.
    assert "kernel_workers" not in manifest
    assert 0.0 < manifest["evolve_s"] <= manifest["wall_time_s"]
    # Two spans of 500 m in 16 steps each, the config's dz of 31.25 m.
    assert manifest["guards"] == step_guard_values(
        grid, load_config(cfg).plan.model, 31.25)
    assert manifest["guards"]["weak_scattering"] < 0.1
    snaps = manifest["snapshots"]
    assert [s["z_m"] for s in snaps] == [0.0, 500.0, 1000.0]
    assert [s["steps"] for s in snaps] == [0, 16, 16]
    assert snaps[0]["trace_drift"] == 0.0
    for snap, row in zip(snaps, rows[1:]):
        assert snap["trace_drift"] < 1e-8
        assert snap["hermiticity_residual"] == float(row[2])
        assert snap["boundary_mass_fraction"] == float(row[3])


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_evolve_kernel_reads_minus_zero_as_zero(tmp_path):
    cfg = write_config(tmp_path)
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, np.eye(8, dtype=complex))
    out = tmp_path / "evolve"
    assert main(["evolve-kernel", "--config", str(cfg),
                 "--input", str(kernel_path), "--z-list=-0,500",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.bin")) == [
        "kernel_z0.bin", "kernel_z500.bin"]
    snaps = json.loads((out / "manifest.json").read_text())["snapshots"]
    assert [str(s["z_m"]) for s in snaps] == ["0.0", "500.0"]
    assert read_csv(out / "kernel_evolution.csv")[1][0] == "0.0"


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_evolve_kernel_manifest_of_a_biphoton_kernel(tmp_path):
    # A Hermitian (2, 2) kernel at n = 16 evolves 9 sectors in three chunks
    # of 4, 4 and 1, all on the calling thread.
    cfg = write_config(tmp_path, grid={"n": 16})
    grid = FrequencyGrid(1, 16, 0.25, 1.55e-6)
    g = np.exp(-grid.freq_sq() / 0.3).astype(complex)
    pair = np.multiply.outer(g, g)
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, np.multiply.outer(pair, np.conj(pair)))
    out = tmp_path / "evolve"
    assert main(["evolve-kernel", "--config", str(cfg),
                 "--input", str(kernel_path), "--orders", "2,2",
                 "--z-list", "250", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "kernel_workers" not in manifest
    assert manifest["orders"] == [2, 2]
    (snap,) = manifest["snapshots"]
    assert snap["steps"] == 8
    assert snap["trace_drift"] < 1e-12
    assert snap["hermiticity_residual"] < 1e-12
    assert 0.0 < snap["boundary_mass_fraction"] < 1.0


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_evolve_kernel_manifest_counts_sectors(tmp_path):
    # Every span of a bitwise Hermitian (2, 2) kernel evolves the 9
    # sectors K <= -K and fills the other 7; a complex source's
    # outer(s, conj(s)) is Hermitian only to rounding and evolves all 16.
    cfg = write_config(tmp_path, grid={"n": 16})
    grid = FrequencyGrid(1, 16, 0.25, 1.55e-6)
    g = np.exp(-grid.freq_sq() / 0.3).astype(complex)
    counts = {}
    for label, s in (("hermitian", g),
                     ("near", g * np.exp(0.3j * np.arange(16)))):
        pair = np.multiply.outer(s, s)
        kernel_path = tmp_path / f"{label}.bin"
        write_array(kernel_path, np.multiply.outer(pair, np.conj(pair)))
        out = tmp_path / label
        assert main(["evolve-kernel", "--config", str(cfg),
                     "--input", str(kernel_path), "--orders", "2,2",
                     "--z-list", "0,250,500", "--out", str(out)]) == 0
        snaps = json.loads((out / "manifest.json").read_text())["snapshots"]
        counts[label] = [(s["sectors_evolved"], s["sectors_filled"])
                         for s in snaps]
    assert counts["hermitian"] == [(0, 0), (9, 7), (9, 7)]
    assert counts["near"] == [(0, 0), (16, 0), (16, 0)]


def chain_inputs():
    """Evolve-kernel inputs by label: (orders, grid n, cn2, values)."""
    g64 = np.exp(-FrequencyGrid(1, 64, 0.25, 1.55e-6).freq_sq() / 4.5)
    grid16 = FrequencyGrid(1, 16, 0.25, 1.55e-6)
    g16 = np.exp(-grid16.freq_sq() / 0.3).astype(complex)
    s16 = np.exp(-grid16.freq_sq() / 2.0) * np.exp(0.3j * np.arange(16))
    pair, near = np.multiply.outer(g16, g16), np.multiply.outer(s16, s16)
    return {
        "h11-n64": ((1, 1), 64, 9.2e-15, np.outer(g64, np.conj(g64))),
        "h22-n16": ((2, 2), 16, 9.2e-15,
                    np.multiply.outer(pair, np.conj(pair))),
        "near-h22-n16": ((2, 2), 16, 9.2e-15,
                         np.multiply.outer(near, np.conj(near))),
        "h20-n16": ((2, 0), 16, 9.2e-15, pair),
        "h11-n64-cn2-0": ((1, 1), 64, 0.0, np.outer(g64, np.conj(g64))),
    }


def span_by_span(kernel, plan, z_list):
    """The snapshots, CSV rows and manifest snapshots of evolve-kernel,
    each span evolved from a kernel that carries no generator and measured
    by the diagnostic functions themselves."""
    m, n = kernel.orders
    trace0 = moments.kernel_trace(kernel).real if m == n else None
    current, z_prev = kernel, 0.0
    values, rows, snapshots = [], [], []
    for z in z_list:
        span, steps, counts = z - z_prev, 0, (0, 0)
        if span > 0:
            steps = max(1, int(np.ceil(span / plan.dz)))
            fresh = moments.MomentKernel(current.orders, current.grid,
                                         current.values, current.z)
            current = moments.evolve_kernel(fresh, plan.model, span, steps)
            counts = (current.sectors_evolved, current.sectors_filled)
        z_prev = z
        values.append(current.values)
        trace = moments.kernel_trace(current).real if m == n else np.nan
        herm = moments.hermiticity_residual(current) if m == n else None
        mass = moments.boundary_mass_fraction(current)
        rows.append([z, trace, np.nan if herm is None else herm, mass])
        snapshots.append({
            "z_m": z, "steps": steps, "sectors_evolved": counts[0],
            "sectors_filled": counts[1],
            "trace_drift": (abs(trace - trace0) / abs(trace0)
                            if trace0 else None),
            "hermiticity_residual": herm, "boundary_mass_fraction": mass})
    return values, rows, snapshots


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
@pytest.mark.parametrize("z_list", ["0,500,1000", "0,100,250,1000"])
@pytest.mark.parametrize("label", list(chain_inputs()))
def test_chained_spans_match_span_by_span_evolution(tmp_path, label, z_list):
    # evolve-kernel carries one generator through its spans; every output
    # byte equals evolving each span from a kernel without one.
    orders, n, cn2, values = chain_inputs()[label]
    cfg_path = write_config(tmp_path, grid={"n": n}, model={"cn2": cn2})
    plan = load_config(cfg_path).plan
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, values)
    out = tmp_path / "evolve"
    assert main(["evolve-kernel", "--config", str(cfg_path),
                 "--input", str(kernel_path),
                 "--orders", ",".join(map(str, orders)),
                 "--z-list", z_list, "--out", str(out)]) == 0
    z_values = [float(z) for z in z_list.split(",")]
    kernel = moments.MomentKernel(orders, plan.grid, values)
    want, rows, snapshots = span_by_span(kernel, plan, z_values)
    reference = tmp_path / "reference"
    reference.mkdir()
    for z, snap in zip(z_values, want):
        name = f"kernel_z{z:g}.bin"
        write_array(reference / name, snap,
                    {"grid": read_array(out / name)[1]["grid"],
                     "orders": list(orders)})
        assert (out / name).read_bytes() == (reference / name).read_bytes()
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["z_m", "trace", "hermiticity_residual",
                     "boundary_mass_fraction"])
    writer.writerows(rows)
    assert (out / "kernel_evolution.csv").read_bytes() == \
        text.getvalue().encode()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["snapshots"] == json.loads(json.dumps(snapshots))
    assert manifest["generator_builds"] == 1
    if label == "near-h22-n16":
        assert snapshots[-1]["sectors_filled"] == 0
    elif label == "h22-n16":
        assert snapshots[-1]["sectors_filled"] == 7


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_one_generator_and_one_evolve_call_per_span(tmp_path, monkeypatch):
    # KernelGenerator.build runs once per command, and the command calls
    # evolve_kernel once per nonzero span, so each span is a traced span
    # of its own.
    orders, n, cn2, values = chain_inputs()["h22-n16"]
    cfg_path = write_config(tmp_path, grid={"n": n})
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, values)
    build = moments.KernelGenerator.build
    evolve = cli.evolve_kernel
    builds, spans = [], []
    monkeypatch.setattr(moments.KernelGenerator, "build",
                        lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(cli, "evolve_kernel",
                        lambda *args: spans.append(args[2]) or evolve(*args))
    for z_list, n_builds, n_spans in (("0,100,100,250,1000", 1, [100, 150,
                                                                750]),
                                      ("0", 0, [])):
        builds.clear(), spans.clear()
        out = tmp_path / z_list
        assert main(["evolve-kernel", "--config", str(cfg_path),
                     "--input", str(kernel_path), "--orders", "2,2",
                     "--z-list", z_list, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(builds) == manifest["generator_builds"] == n_builds
        assert spans == n_spans


@pytest.mark.parametrize("case", ["asymmetric", "above-byte-bound",
                                  "wrong-shape"])
def test_evolve_kernel_input_guards_are_input_errors(tmp_path, monkeypatch,
                                                     capsys, case):
    # An input the kernel guards refuse is an input error, as a wrong shape
    # is: exit 2 and the file named.  The guards run in the first span, so
    # only the z = 0 snapshot, a copy of the input, is written before.
    cfg = write_config(tmp_path, grid={"n": 16})
    values = np.random.default_rng(3).standard_normal((16,) * 4)
    orders, message = "2,2", "bi-photon kernel lacks exchange symmetry"
    if case == "above-byte-bound":
        monkeypatch.setattr(moments, "MAX_KERNEL_BYTES", 2 ** 10)
        values, orders, message = values[0, 0], "1,1", "GiB limit"
    elif case == "wrong-shape":
        orders, message = "1,1", "values shape"
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, values)
    out = tmp_path / "evolve"
    assert main(["evolve-kernel", "--config", str(cfg),
                 "--input", str(kernel_path), "--orders", orders,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {kernel_path}: ")
    assert message in err
    assert sorted(p.name for p in out.iterdir()) == (
        [] if case == "wrong-shape"
        else ["kernel_z0.bin", "kernel_z0.bin.json"])


def test_evolve_kernel_refuses_a_span_step_before_writing(tmp_path, capsys):
    # With plan.z_total 0 each span is one step, which the configuration's
    # guard check has not seen: on the reference lattice a 25-m step
    # meets both guards and a 4975-m step breaks the sampling guard.  The
    # command refuses the second span before any snapshot, the first
    # span's included, is written.
    orders, n, cn2, values = chain_inputs()["h11-n64"]
    cfg = write_config(tmp_path, grid={"n": n}, plan={"z_total": 0.0})
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, values)
    out = tmp_path / "evolve"
    assert main(["evolve-kernel", "--config", str(cfg),
                 "--input", str(kernel_path), "--orders", "1,1",
                 "--z-list", "0,25,5000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: plan: sampling guard "
                          "violated: ")
    assert list(out.iterdir()) == []
    # Spans whose one step meets the guards evolve as before.
    assert main(["evolve-kernel", "--config", str(cfg),
                 "--input", str(kernel_path), "--orders", "1,1",
                 "--z-list", "0,25", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [s["steps"] for s in manifest["snapshots"]] == [0, 1]


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_two_span_z_list_checks_exchange_symmetry_once(tmp_path,
                                                       monkeypatch):
    # The first span computes the input's exchange residual; the second
    # evolves its output, which carries a generator, and does not.
    orders, n, cn2, values = chain_inputs()["h22-n16"]
    cfg_path = write_config(tmp_path, grid={"n": n})
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, values)
    check = moments._check_biphoton
    residuals = []
    monkeypatch.setattr(moments, "_check_biphoton",
                        lambda kernel: residuals.append(kernel.z) or
                        check(kernel))
    assert main(["evolve-kernel", "--config", str(cfg_path),
                 "--input", str(kernel_path), "--orders", "2,2",
                 "--z-list", "0,500,1000",
                 "--out", str(tmp_path / "out")]) == 0
    assert residuals == [0.0]


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_rerun_overwrites_outputs_exactly(tmp_path):
    # Outputs written over longer files of the same names hold exactly the
    # new bytes; a second evolve-kernel run into the same directory writes
    # the same snapshots, sidecars and CSV, and a manifest that parses.
    cfg = write_config(tmp_path)
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, np.eye(8, dtype=complex))
    names = ["kernel_z0.bin", "kernel_z0.bin.json", "kernel_z1000.bin",
             "kernel_z1000.bin.json", "kernel_evolution.csv",
             "manifest.json"]
    stale, fresh = tmp_path / "stale", tmp_path / "fresh"
    stale.mkdir()
    for name in names:
        (stale / name).write_bytes(b"\xff" * 2 ** 16)
    runs = []
    for out in (stale, fresh, fresh):
        assert main(["evolve-kernel", "--config", str(cfg),
                     "--input", str(kernel_path), "--z-list", "0,1000",
                     "--out", str(out)]) == 0
        runs.append({name: (out / name).read_bytes() for name in names})
    for run in runs[1:]:
        for name in names[:-1]:
            assert run[name] == runs[0][name], name
    manifests = [json.loads(run["manifest.json"]) for run in runs]
    for manifest in manifests:
        manifest.pop("evolve_s"), manifest.pop("wall_time_s")
    assert manifests[0] == manifests[1] == manifests[2]
    csv_bytes = runs[0]["kernel_evolution.csv"]
    assert csv_bytes.count(b"\r\n") == 3 and b"\xff" not in csv_bytes


def test_validate_rewrites_its_reports_exactly(tmp_path, monkeypatch):
    class FakeReport:
        passed = True

        def to_json_dict(self):
            return {"passed": True}

        def to_text(self):
            return "[PASS] fake"

    monkeypatch.setattr(validation, "run_validate",
                        lambda plan, source=None: FakeReport())
    out = tmp_path / "val"
    out.mkdir()
    for name in ("validation_report.json", "validation_report.txt"):
        (out / name).write_bytes(b"x" * 4096)
    assert main(["validate", "--out", str(out)]) == 0
    assert (out / "validation_report.json").read_bytes() \
        == b'{\n  "passed": true\n}\n'
    assert (out / "validation_report.txt").read_bytes() == b"[PASS] fake\n"


def test_simulate_command_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    mean_a, meta = read_array(out_a / "mean_field.bin")
    mean_b, _ = read_array(out_b / "mean_field.bin")
    assert np.array_equal(mean_a, mean_b)
    assert meta["master_seed"] == 7
    second, _ = read_array(out_a / "second_moment.bin")
    assert second.shape == (8, 8)
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["n_realizations"] == 8
    assert "threads" not in manifest
    # 8 realizations are one block, propagated by one worker.
    assert manifest["ensemble_workers"] == 1
    assert 0.0 < manifest["ensemble_s"] <= manifest["wall_time_s"]
    assert manifest["guards"]["weak_scattering"] < 0.1
    # a different seed changes the ensemble
    out_c = tmp_path / "run_c"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_c),
                 "--seed", "8"]) == 0
    mean_c, meta_c = read_array(out_c / "mean_field.bin")
    assert not np.array_equal(mean_a, mean_c)
    assert meta_c["master_seed"] == 8


def test_simulate_writes_exactly_its_tensors_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    tensors = ["mean_field", "mean_field_se", "second_moment",
               "second_moment_se"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{t}.bin" for t in tensors] + [f"{t}.bin.json" for t in tensors]
        + ["manifest.json"])


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, model={"cn2": -1.0})
    assert main(["simulate", "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


# Configurations that ran to NaN outputs or ended in a traceback before
# the schema refused them.
BAD_CONFIGS = {
    "cn2-nan": ({"model": {"cn2": float("nan")}},
                "model.cn2: expected a finite number, got nan"),
    "delta-a-nan": ({"grid": {"delta_a": float("nan")}},
                    "grid.delta_a: expected a finite number, got nan"),
    "z-total-nan": ({"plan": {"z_total": float("nan")}},
                    "plan.z_total: expected a finite number, got nan"),
    "sigma-a-zero": ({"source": {"sigma_a": 0.0}},
                     ("source: sigma_a must be finite and > 0 "
                      "(2 sigma_a^2 too), got 0.0")),
    "sigma-a-nan": ({"source": {"sigma_a": float("nan")}},
                    "source.sigma_a: expected a finite number, got nan"),
    "grid-not-object": ({"grid": 5}, "grid: expected an object"),
    "one-realization": ({"plan": {"n_realizations": 1}},
                        "plan: n_realizations must be >= 2"),
    "output-dir-int": ({"output_dir": 5}, "output_dir: expected str, got 5"),
}


@pytest.mark.parametrize("overrides, message", BAD_CONFIGS.values(),
                         ids=BAD_CONFIGS.keys())
def test_bad_configurations_are_configuration_errors(tmp_path, capsys,
                                                     overrides, message):
    path = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"
    assert not out.exists()


def test_seed_must_be_u64(tmp_path, monkeypatch, capsys):
    # A seed outside [0, 2^64) would wrap silently in a Philox key: the
    # configuration refuses it as a ConfigError and --seed as a usage error
    # (both exit 2) before any check runs.
    monkeypatch.setattr(validation, "run_validate", None)
    for seed in (-1, 2 ** 64):
        path = write_config(tmp_path, plan={"master_seed": seed})
        with pytest.raises(ConfigError, match="master_seed must be an "
                                              "integer in"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--seed", str(seed)])
        assert exc.value.code == 2
        assert "argument --seed: invalid u64 value" in \
            capsys.readouterr().err
    path = write_config(tmp_path, plan={"master_seed": 2 ** 64 - 1})
    assert load_config(path).plan.master_seed == 2 ** 64 - 1


@pytest.mark.parametrize("command,flags,message", [
    ("evolve-kernel", ["--orders", "1,1,1"], "argument --orders"),
    ("evolve-kernel", ["--orders", "x"], "argument --orders"),
    ("evolve-kernel", ["--orders", "3,2"], "argument --orders"),
    ("evolve-kernel", ["--orders=-1,1"], "argument --orders"),
    ("evolve-kernel", ["--z-list", "a,b"], "argument --z-list"),
    ("evolve-kernel", ["--z-list", ""], "argument --z-list"),
    ("evolve-kernel", ["--z-list=-5,0"], "argument --z-list"),
    # An 8x8 (1, 1) kernel file read as a (2, 2) kernel.
    ("evolve-kernel", ["--orders", "2,2"], "configuration error: .*shape"),
    ("screens", ["--samples", "5"], "unrecognized arguments: --samples"),
    ("spectrum-table", ["--points", "-1"], "argument --points"),
    ("spectrum-table", ["--points", "0"], "argument --points"),
], ids=["orders-three", "orders-text", "orders-rank5", "orders-negative",
        "z-text", "z-empty", "z-negative", "kernel-shape", "samples-few",
        "points-negative", "points-zero"])
def test_malformed_arguments_exit_2(tmp_path, capsys, command, flags,
                                    message):
    cfg = write_config(tmp_path)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "evolve-kernel":
        kernel_path = tmp_path / "init.bin"
        write_array(kernel_path, np.eye(8, dtype=complex))
        argv += ["--input", str(kernel_path)]
    try:
        code = main(argv + flags)
    except SystemExit as exc:  # argparse refuses the value itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert "Traceback" not in err


def test_validate_exit_codes(tmp_path, monkeypatch):
    class FakeReport:
        passed = True

        def to_json_dict(self):
            return {"passed": self.passed}

        def to_text(self):
            return "[PASS] fake"

    def fake_run(plan, source=None):
        fake_run.seen = plan, source
        return report

    report = FakeReport()
    monkeypatch.setattr(validation, "run_validate", fake_run)
    out = tmp_path / "val"
    assert main(["validate", "--out", str(out), "--seed", "123"]) == 0
    assert fake_run.seen == (replace(validation.REFERENCE, master_seed=123),
                             None)
    cfg = write_config(tmp_path)
    assert main(["validate", "--config", str(cfg), "--seed", "123", "--out",
                 str(out)]) == 0
    loaded = load_config(cfg)
    assert fake_run.seen[0] == replace(loaded.plan, master_seed=123)
    assert np.array_equal(fake_run.seen[1].values, loaded.source.values)
    assert json.loads((out / "validation_report.json").read_text()) \
        == {"passed": True}
    assert "[PASS]" in (out / "validation_report.txt").read_text()
    report.passed = False
    assert main(["validate", "--out", str(out)]) == 1


def test_validate_config_runs_its_own_plan(tmp_path):
    # A Kolmogorov model is valid at cn2 = 0; the suite runs on the file's
    # model and reports on it.
    cfg = write_config(tmp_path, grid={"n": 16},
                       model={"kind": "kolmogorov", "cn2": 0.0},
                       plan={"n_slabs": 8})
    raw = json.loads(cfg.read_text())
    del raw["model"]["outer_scale"]
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "val"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["environment"]["master_seed"] == 7
    checks = {c["name"]: c for c in report["checks"]}
    assert len(checks) == 16
    assert checks["mutual-coherence/relative-rms"]["passed"] is True


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_json_files_have_the_json_dumps_layout(tmp_path):
    # Every JSON file evolve-kernel writes (the snapshot sidecars and the
    # manifest), and the report validate writes, is the text of
    # json.dumps(indent=2, sort_keys=True) with a final newline.
    cfg = write_config(tmp_path)
    grid = FrequencyGrid(1, 8, 0.25, 1.55e-6)
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, np.diag(np.exp(-grid.freq_sq())).astype(complex)
                * grid.delta_weight)
    out = tmp_path / "evolve"
    assert main(["evolve-kernel", "--config", str(cfg), "--input",
                 str(kernel_path), "--z-list", "0,500", "--out",
                 str(out)]) == 0
    assert main(["validate", "--config", str(cfg), "--out",
                 str(out / "val")]) in (0, 1)
    paths = sorted(out.rglob("*.json"))
    assert [p.relative_to(out).as_posix() for p in paths] == [
        "kernel_z0.bin.json", "kernel_z500.bin.json", "manifest.json",
        "val/validation_report.json"]
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_validate_reference_config_without_turbulence(tmp_path):
    # At cn2 = 0 nothing scatters, so the perturbed stationarity check has
    # no rate to normalize by: it is reported as not applicable, with its
    # bounds unchanged, and every other check passes.
    raw = json.loads(REFERENCE_CONFIG.read_text())
    raw["model"]["cn2"] = 0.0
    cfg = tmp_path / "no_turbulence.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "val"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 16
    na = [c["name"] for c in report["checks"] if not c["applicable"]]
    assert na == ["stationarity/perturbed"]
    perturbed = next(c for c in report["checks"] if c["name"] == na[0])
    assert (perturbed["lower_bound"], perturbed["tolerance"]) == (1e-4, 1e-2)
    assert all(c["passed"] for c in report["checks"] if c["applicable"])
    text = (out / "validation_report.txt").read_text()
    assert "[N/A] stationarity/perturbed" in text


@pytest.mark.filterwarnings("ignore:kernel boundary mass")
def test_commands_run_every_config_the_guards_accept(tmp_path):
    # One slab of the reference plan at cn2 = 1e-16: the sampling phase
    # 0.31 is within the plan's pi/4 bound, so the configuration loads, and
    # the kernel steps of evolve-kernel and validate meet the same guard.
    raw = json.loads(REFERENCE_CONFIG.read_text())
    raw["model"]["cn2"] = 1e-16
    raw["plan"]["n_slabs"] = 1
    raw["output_dir"] = str(tmp_path / "out")
    cfg = tmp_path / "one_slab.json"
    cfg.write_text(json.dumps(raw))
    loaded = load_config(cfg)
    guards = loaded.plan.guard_values()
    assert 0.1 < guards["sampling"] < np.pi / 4
    assert guards["weak_scattering"] < 0.1
    source = loaded.source.values
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, np.multiply.outer(source, np.conj(source)))
    assert main(["evolve-kernel", "--config", str(cfg),
                 "--input", str(kernel_path), "--z-list", "1000",
                 "--out", str(tmp_path / "evolve")]) == 0
    out = tmp_path / "val"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert len(report["checks"]) == 16
    assert all(c["passed"] for c in report["checks"])


_RUNTIME_IMPORTS = """
import sys
before = set(sys.modules)
import ipfe, ipfe.cli
from ipfe.grid import FrequencyGrid, Spectrum
from ipfe.spectrum import SpectrumKind, TurbulenceModel, lambda_total_1d
from ipfe.states import FockSpec, fock_wigner
grid = FrequencyGrid(1, 8, 0.25, 1.55e-6)
assert lambda_total_1d(
    TurbulenceModel(SpectrumKind.VON_KARMAN, 9.2e-15, 1.0)) > 0.0
fock = FockSpec.normalized(grid, Spectrum.gaussian(grid, 0.5).values)
fock_wigner(2, fock, Spectrum(grid, 0.3 * fock.profile))
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
sys.stdout.write(",".join(sorted(
    loaded - set(sys.stdlib_module_names) - {"ipfe", "numpy"})))
"""


def run_python(code):
    """The standard output of code run in a fresh interpreter that imports
    ipfe from this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300).stdout


def test_numpy_is_the_only_runtime_dependency():
    # Importing the package and the command line, and computing Lambda and
    # a Fock Wigner value, loads no third-party package besides numpy.
    assert run_python(_RUNTIME_IMPORTS) == ""


def test_cli_import_leaves_out_concurrent_futures():
    # concurrent.futures loads logging, 0.2 MB of resident memory: it is
    # imported when work first runs on worker threads, so commands that
    # never thread start without it.
    code = ("import sys, ipfe.cli; "
            "sys.stdout.write(str('concurrent.futures' in sys.modules))")
    assert run_python(code) == "False"


_LAYER_LOADING = """
import contextlib, io, sys, types
import ipfe.cli
layers = ("ipfe.validation", "ipfe.states", "numpy.polynomial")
# A deferred module is in sys.modules with LazyLoader's subclass of
# ModuleType until its code runs; type() reads that without running it.
ran = lambda: [m for m in layers
               if type(sys.modules.get(m)) is types.ModuleType]
loaded = [[m for m in layers if m in sys.modules], ran()]
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert ipfe.cli.main(argv) == 0
    loaded.append(ran())
sys.stdout.write(repr(loaded))
"""


def test_commands_run_validation_and_states_only_where_they_are_used(
        tmp_path):
    # Importing the command line registers the validation and states
    # layers without running them, and evolve-kernel runs neither, nor
    # loads the numpy.polynomial that states' lagval brings.  states then
    # runs its layer.
    cfg = str(write_config(tmp_path))
    grid = FrequencyGrid(1, 8, 0.25, 1.55e-6)
    g = np.exp(-grid.freq_sq()).astype(complex)
    kernel_path = tmp_path / "init.bin"
    write_array(kernel_path, np.outer(g, np.conj(g)))
    argvs = [["evolve-kernel", "--config", cfg, "--input", str(kernel_path),
              "--z-list", "0,500", "--out", str(tmp_path / "evolve")],
             ["states", "--config", cfg, "--out", str(tmp_path / "states")]]
    code = ("import warnings; warnings.simplefilter('ignore'); "
            f"ARGVS = {argvs!r}\n" + _LAYER_LOADING)
    assert run_python(code) == repr(
        [["ipfe.validation", "ipfe.states"], [], [],
         ["ipfe.states", "numpy.polynomial"]])


def test_validate_leaves_out_importlib_metadata(tmp_path):
    # importlib.metadata costs about 20 ms to import and finds no
    # distribution for a source checkout; the report takes the version
    # from ipfe.__version__ instead.
    code = ("import sys; from ipfe.cli import main; "
            f"status = main(['validate', '--out', {str(tmp_path)!r}]); "
            "sys.stdout.write(f'{status} ' "
            "+ str('importlib.metadata' in sys.modules))")
    assert run_python(code).splitlines()[-1] == "0 False"
    assert (tmp_path / "validation_report.json").exists()


def test_traced_spans_resolve():
    # perfbench's traced mode wraps every WRAPPED name by getattr; a name
    # removed from ipfe would break `perfbench/run.py --trace 1`.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, functions in spans.WRAPPED.items():
        module = importlib.import_module(f"ipfe.{modname}")
        for qual in functions:
            owner = module
            for attr in qual.split("."):
                assert hasattr(owner, attr), f"ipfe.{modname}.{qual}"
                owner = getattr(owner, attr)
            assert callable(owner), f"ipfe.{modname}.{qual}"


def test_version_is_the_pyproject_version():
    # ipfe.__version__ is the report's package_version.  pyproject.toml is
    # read as text: tomllib arrives only in Python 3.11.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version = "([^"]+)"$', project, re.M)
    assert version is not None
    assert ipfe.__version__ == version.group(1)


def test_package_exports_resolve():
    # `from ipfe import *` fails on a name left in __all__ after its
    # definition or import is removed.
    # The states names and run_validate load on first access: dir() lists
    # them before that, and a star import in a fresh interpreter binds
    # every name.
    missing = [name for name in ipfe.__all__ if not hasattr(ipfe, name)]
    assert not missing
    assert len(set(ipfe.__all__)) == len(ipfe.__all__)
    assert set(ipfe.__all__) <= set(dir(ipfe))
    with pytest.raises(AttributeError, match="no_such_name"):
        ipfe.no_such_name
    code = ("import ipfe; listed = set(ipfe.__all__) <= set(dir(ipfe)); "
            "from ipfe import *; "
            "print(listed, all(n in globals() for n in ipfe.__all__))")
    assert run_python(code) == "True True\n"
