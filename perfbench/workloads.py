"""The benchmark workloads: their inputs, commands and output checks.

BENCHMARK.json lists ``reference-validate`` and ``kernel-hierarchy``;
``ensemble-2d`` runs only when asked for by name (see README.md).

Each workload is a closed loop of one operation after another; an
operation is the list of ``ipfe`` commands in ``commands``.  ``prepare``
writes the inputs an operation needs (configuration files and initial
kernels, derived from the benchmark seed) and is what ``setup_s`` times.
``check`` reads one operation's outputs and returns failure messages.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

WAVELENGTH = 1.55e-6
DELTA_A = 0.25
CN2 = 9.2e-15
OUTER_SCALE = 1.0
Z_TOTAL = 1000.0
Z_LIST = (0.0, 500.0, 1000.0)

# Master seed of the reference configuration (configs/reference.json); also
# the default benchmark seed.
REFERENCE_MASTER_SEED = 20240117


def _config(dim, n, n_slabs, n_realizations, master_seed, sigma_a) -> dict:
    return {
        "grid": {"dim": dim, "n": n, "delta_a": DELTA_A,
                 "wavelength": WAVELENGTH},
        "model": {"kind": "von_karman", "cn2": CN2,
                  "outer_scale": OUTER_SCALE, "inner_scale": 0.0},
        "plan": {"z_total": Z_TOTAL, "n_slabs": n_slabs,
                 "n_realizations": n_realizations,
                 "master_seed": master_seed},
        "source": {"type": "gaussian", "sigma_a": sigma_a, "amplitude": 1.0},
    }


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2))
    # Loading here rejects a configuration the guards refuse before any
    # operation is timed.
    from ipfe.cli import load_config
    load_config(path)
    return str(path)


class ReferenceValidate:
    """`ipfe validate` at the reference configuration: 1-D, n=64, 32 slabs,
    1000 realizations, master seed 20240117.

    The suite's Monte-Carlo checks are 3-sigma bounds, so another master
    seed fails some of them on a few percent of seeds; the workload runs
    the reference seed the suite is specified with, whatever the benchmark
    seed.
    """

    name = "reference-validate"

    def prepare(self, workdir: Path, seed: int) -> None:
        self.out = workdir / "validate"
        self.commands = [("validate", [
            "validate", "--seed", str(REFERENCE_MASTER_SEED),
            "--out", str(self.out)])]

    def check(self) -> list[str]:
        with open(self.out / "validation_report.json") as fh:
            return checks.check_validate_report(json.load(fh))


class Ensemble2D:
    """`ipfe simulate` on a 2-D n=16 lattice (256 sites), 64 slabs (the
    weak-scattering guard refuses 32), 200 realizations, screens keyed by
    the benchmark seed."""

    name = "ensemble-2d"
    dim, n, n_slabs, n_realizations, sigma_a = 2, 16, 64, 200, 0.5

    def prepare(self, workdir: Path, seed: int) -> None:
        cfg = _config(self.dim, self.n, self.n_slabs, self.n_realizations,
                      seed, self.sigma_a)
        path = _write_config(workdir / "ensemble2d.json", cfg)
        self.out = workdir / "ensemble2d"
        self.commands = [("simulate", ["simulate", "--config", path,
                                       "--out", str(self.out)])]

    def check(self) -> list[str]:
        read = checks.read_bin
        mean = read(self.out / "mean_field.bin")
        mean_se = read(self.out / "mean_field_se.bin")
        second = read(self.out / "second_moment.bin")
        size = self.n ** self.dim
        if mean.shape != (self.n,) * self.dim or second.shape != (size, size):
            return [f"output shapes {mean.shape}, {second.shape}"]
        g0 = checks.gaussian_source(self.dim, self.n, DELTA_A, self.sigma_a)
        expected = checks.closed_form_mean(g0, self.dim, DELTA_A, WAVELENGTH,
                                           CN2, OUTER_SCALE, Z_TOTAL)
        return (checks.check_second_moment_trace(second, g0,
                                                 DELTA_A ** self.dim)
                + checks.check_hermitian(second)
                + checks.check_mean_decay(mean, mean_se, second, expected,
                                          self.n_realizations))


class KernelHierarchy:
    """`ipfe evolve-kernel` for (1,1) on the reference n=64 grid and (2,2)
    on n=16 (the bi-photon bound), snapshots at z = 0, 500, 1000.  A third
    command evolves the (1,1) kernel of the same source on the n=16 grid,
    the partner of the partial-trace identity.  The benchmark seed picks
    the Gaussian source widths and centres."""

    name = "kernel-hierarchy"

    def prepare(self, workdir: Path, seed: int) -> None:
        from ipfe.arrayio import write_array

        rng = np.random.default_rng(seed)
        sigma64 = rng.uniform(1.2, 1.8)
        centre64 = int(rng.integers(-4, 5)) * DELTA_A
        sigma16 = rng.uniform(0.35, 0.5)
        centre16 = int(rng.integers(-1, 2)) * DELTA_A
        z_list = ",".join(f"{z:g}" for z in Z_LIST)

        g64 = checks.gaussian_source(1, 64, DELTA_A, sigma64, centre=centre64)
        g16 = checks.gaussian_source(1, 16, DELTA_A, sigma16, centre=centre16)
        pair = np.multiply.outer(g16, g16)
        self.inputs = {
            "h11": np.outer(g64, np.conj(g64)),
            "h22": np.multiply.outer(pair, np.conj(pair)),
            "h11_n16": np.outer(g16, np.conj(g16)),
        }
        self.norm_sq16 = float(np.sum(np.abs(g16) ** 2)) * DELTA_A
        cfg64 = _write_config(workdir / "grid64.json",
                              _config(1, 64, 32, 2, seed, sigma64))
        cfg16 = _write_config(workdir / "grid16.json",
                              _config(1, 16, 32, 2, seed, sigma16))
        self.commands = []
        for label, cfg, orders in (("h11", cfg64, "1,1"),
                                   ("h22", cfg16, "2,2"),
                                   ("h11_n16", cfg16, "1,1")):
            source = workdir / f"{label}_input.bin"
            write_array(source, self.inputs[label])
            self.commands.append((label, [
                "evolve-kernel", "--config", cfg, "--input", str(source),
                "--orders", orders, "--z-list", z_list,
                "--out", str(workdir / label)]))
        self.workdir = workdir

    def _snapshots(self, label):
        return {z: checks.read_bin(self.workdir / label / f"kernel_z{z:g}.bin")
                for z in Z_LIST}

    def check(self) -> list[str]:
        h11 = self._snapshots("h11")
        h22 = self._snapshots("h22")
        h11_n16 = self._snapshots("h11_n16")
        failures = (
            checks.check_kernel_snapshots(h11, self.inputs["h11"], DELTA_A, 1)
            + checks.check_kernel_snapshots(h22, self.inputs["h22"], DELTA_A,
                                            2)
            + checks.check_kernel_snapshots(h11_n16, self.inputs["h11_n16"],
                                            DELTA_A, 1))
        for z in Z_LIST:
            failures += checks.check_exchange_symmetry(h22[z], z)
            failures += checks.check_partial_trace(
                h22[z], h11_n16[z], self.norm_sq16, DELTA_A, z)
        return failures


WORKLOADS = {w.name: w for w in (ReferenceValidate, Ensemble2D,
                                 KernelHierarchy)}
