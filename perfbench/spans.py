"""Traced mode: spans around calls into the public functions of each ipfe
module, recorded from outside the program.

``Tracer.install`` replaces each function listed in ``WRAPPED`` by a
wrapper, in its own module and in every ipfe module that imported it by
name, so calls made inside the program are timed too.  A span is a name,
a start, an end, the index of the enclosing span and the index of the
benchmark operation (the per-run id).  Spans and the byte counters stay in
memory until the run ends; ``layer_metrics`` then derives self times
(duration minus the time covered by child spans) and the per-layer
metrics, one value per operation, reported as the median over operations.
The coverage is the share of the traced wall time that the self times of
the layer spans account for, with the self time of the ``cli.main`` and
``run_validate`` roots (argument parsing, manifests, report writing and
anything not wrapped) left out and reported as ``trace.glue_share``.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# module -> public functions (or Class.method) wrapped in traced mode.
WRAPPED = {
    "grid": ["to_position", "to_frequency"],
    "spectrum": ["psd_lattice", "lambda_grid"],
    "phase_screen": ["draw_screen", "phase_screen_position",
                     "screen_statistics"],
    "splitstep": ["ensemble_moments", "propagate", "free_space_step",
                  "apply_screen", "PropagationPlan.slab_screen",
                  "PropagationPlan.check_guards"],
    "moments": ["evolve_kernel", "evolve_h11", "evolve_h10", "h11_rhs",
                "hierarchy_rhs", "biphoton_rhs", "kernel_trace",
                "hermiticity_residual", "boundary_mass_fraction"],
    "_accel": ["pair_shift_sum", "pair_shift_sum_fft", "pair_shift_sum_loop"],
    "states": ["free_space_gaussian", "gaussian_drift", "shift_decay",
               "characteristic_of_gaussian", "wigner_linear_process",
               "evaluate_linear_process", "fock_generating", "fock_wigner"],
    "arrayio": ["write_array", "read_array"],
    "cli": ["main", "load_config"],
    "validation": ["run_validate", "check_free_space", "check_first_moment",
                   "check_mutual_coherence", "check_conservation",
                   "check_stationarity", "check_rhs_oracles",
                   "check_wigner_formulas", "check_screens",
                   "check_duality"],
}

VALIDATION_CHECKS = WRAPPED["validation"][1:]

# Span groups whose time is counted once per outermost call, so a function
# of the group calling another one of it (lambda_grid -> psd_lattice,
# hierarchy_rhs -> h11_rhs, pair_shift_sum -> pair_shift_sum_loop) is not
# counted twice.
GROUPS = {
    "lattice": ["spectrum.psd_lattice", "spectrum.lambda_grid"],
    "rhs": ["moments.h11_rhs", "moments.hierarchy_rhs",
            "moments.biphoton_rhs"],
    "diagnostics": ["moments.kernel_trace", "moments.hermiticity_residual",
                    "moments.boundary_mass_fraction"],
    "pair_sum": ["_accel.pair_shift_sum", "_accel.pair_shift_sum_fft",
                 "_accel.pair_shift_sum_loop"],
    "states": [f"states.{f}" for f in WRAPPED["states"]],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = 0
        self.counters: dict[tuple[int, str], float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, namer=None, count_bytes=None):
        """Wrap fn in a span.  namer(args) may refine the span name from
        the arguments; count_bytes names a counter that receives the size
        of the file passed as the first argument."""
        tracer = self
        name_id, start, end = self.name_id, self.start, self.end
        parent, ops, stack = self.parent, self.op, self.stack
        clock = time.perf_counter
        fixed_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(tracer._id(namer(args)) if namer else fixed_id)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if count_bytes:
                    tracer.counters[(tracer.current_op, count_bytes)] += \
                        os.path.getsize(args[0])

        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever ipfe refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "ipfe" or k.startswith("ipfe.")]
        for modname, functions in WRAPPED.items():
            module = importlib.import_module(f"ipfe.{modname}")
            for qual in functions:
                owner = module
                attr = qual
                if "." in qual:
                    cls, attr = qual.split(".")
                    owner = getattr(module, cls)
                original = getattr(owner, attr)
                namer = count_bytes = None
                if qual == "evolve_kernel":
                    def namer(args):
                        m, n = args[0].orders
                        return f"moments.evolve_kernel[{m},{n}]"
                if modname == "arrayio":
                    count_bytes = ("arrayio.write_bytes"
                                   if attr == "write_array"
                                   else "arrayio.read_bytes")
                wrapped = self.wrap(original, f"{modname}.{attr}", namer,
                                    count_bytes)
                if owner is not module:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration minus the time covered by direct child spans."""
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


def outermost(parent: np.ndarray, in_group: np.ndarray) -> np.ndarray:
    """True for spans of the group with no ancestor in the same group.
    Parents precede their children, so one pass in index order suffices."""
    grp = in_group.tolist()
    covered = [False] * len(grp)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            covered[i] = covered[p] or grp[p]
    return in_group & ~np.array(covered, dtype=bool)


def layer_metrics(tracer: Tracer, op_walls: dict[int, float]) -> dict:
    """Per-layer metrics, each the median over the completed operations
    (op index -> traced wall time) of its per-op value.  Times are in
    seconds, counts per operation."""
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    name_id = a["name_id"]
    duration = a["end"] - a["start"]
    own = self_times(a["parent"], duration)
    op = a["op"]

    def is_name(*wanted):
        return np.isin(name_id, [ids[w] for w in wanted if w in ids])

    def group_outer(key):
        return outermost(a["parent"], is_name(*GROUPS[key]))

    def evolve(m, n):
        return is_name(f"moments.evolve_kernel[{m},{n}]")

    # cli.main and run_validate are the roots every other span nests in:
    # their self time is whatever no wrapped function accounts for, so it
    # is reported as glue and left out of the coverage.
    glue = is_name("cli.main", "validation.run_validate")
    evolve_any = is_name(*[n for n in ids
                           if n.startswith("moments.evolve_kernel[")])
    fft = is_name("grid.to_position", "grid.to_frequency")
    lattice = group_outer("lattice")
    rhs = group_outer("rhs")
    pair = group_outer("pair_sum")
    slabs = is_name("splitstep.slab_screen")
    ensemble = is_name("splitstep.ensemble_moments")

    # name -> (kind, mask): "count" counts spans, "dur" sums durations,
    # "self" sums self times.
    spec = {
        "grid.fft_calls": ("count", fft),
        "grid.fft_s": ("self", fft),
        "spectrum.lattice_calls": ("count", is_name(*GROUPS["lattice"])),
        "spectrum.lattice_s": ("dur", lattice),
        "phase_screen.draw_calls": ("count", is_name("phase_screen.draw_screen")),
        "phase_screen.draw_s": ("dur", is_name("phase_screen.draw_screen")),
        "phase_screen.position_s": (
            "self", is_name("phase_screen.phase_screen_position")),
        "phase_screen.statistics_s": (
            "dur", is_name("phase_screen.screen_statistics")),
        "splitstep.ensemble_s": ("dur", ensemble),
        "splitstep.realization_slabs": ("count", slabs),
        "splitstep.seed_s": ("self", slabs),
        "splitstep.free_space_s": (
            "dur", is_name("splitstep.free_space_step")),
        "splitstep.apply_screen_s": ("self", is_name("splitstep.apply_screen")),
        "splitstep.reduce_s": ("self", ensemble),
        "moments.rhs_calls": ("count", rhs),
        "moments.rhs_s": ("dur", rhs),
        "moments.integrator_s": ("self", evolve_any),
        "moments.diagnostics_s": ("dur", group_outer("diagnostics")),
        "h11_evolve_s": ("dur", evolve(1, 1)),
        "h22_evolve_s": ("dur", evolve(2, 2)),
        "accel.pair_sum_calls": ("count", pair),
        "accel.pair_sum_s": ("dur", pair),
        "states.s": ("dur", group_outer("states")),
        "arrayio.write_s": ("dur", is_name("arrayio.write_array")),
        "arrayio.read_s": ("dur", is_name("arrayio.read_array")),
        "cli.load_config_s": ("dur", is_name("cli.load_config")),
    }
    for check in VALIDATION_CHECKS:
        spec[f"validation.{check}_s"] = ("dur",
                                        is_name(f"validation.{check}"))

    per_op: dict[str, list[float]] = defaultdict(list)
    for i, wall in op_walls.items():
        this = op == i
        for metric, (kind, mask) in spec.items():
            sel = mask & this
            if kind == "count":
                value = float(np.count_nonzero(sel))
            elif kind == "dur":
                value = float(np.sum(duration[sel]))
            else:
                value = float(np.sum(own[sel]))
            per_op[metric].append(value)
        for key in ("arrayio.write_bytes", "arrayio.read_bytes"):
            per_op[key].append(tracer.counters.get((i, key), 0.0))
        ens = float(np.sum(duration[ensemble & this]))
        per_op["realization_slabs_per_s"].append(
            np.count_nonzero(slabs & this) / ens if ens > 0 else 0.0)
        per_op["trace.wall_s"].append(wall)
        per_op["trace.spans"].append(float(np.count_nonzero(this)))
        per_op["trace.glue_share"].append(
            float(np.sum(own[this & glue])) / wall)
        per_op["trace.self_coverage"].append(
            float(np.sum(own[this & ~glue])) / wall)
    return {k: statistics.median(v) for k, v in per_op.items()}

