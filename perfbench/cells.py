"""The four workloads, built as rounds of cells.

A *cell* is one model simulated once on one configuration with one
input; it is the benchmark's operation. A *round* runs every cell of a
workload once for one input seed, so every run attempts whole rounds of
the same operations. Each cell is timed on its own, then checked
outside its timer (see :mod:`checks`); a failed check or a raised error
marks that cell failed and the round goes on.

The program is driven only through its public API: ``build_model`` /
``model_input``, ``Accelerator`` + ``simulate``, ``SnapeaContext``,
``simulate_parallel`` + ``SimCache``.
"""

import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import Accelerator, Observability, maeri_like, sigma_like, tpu_like
from repro.frontend import attach_context, detach_context, fold_batchnorms, simulate
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import simulate_parallel
from repro.opts.snapea import SnapeaContext
from repro.parallel import SimCache

import checks
import hostspeed

clock = time.perf_counter

#: weights are the repository's Table I models (build seed 0); the
#: benchmark seed varies only the inputs fed to them
MODEL_SEED = 0

HARDWARE = {
    "tpu16": lambda: tpu_like(num_pes=16),
    "tpu256": lambda: tpu_like(num_pes=256),
    "maeri64": lambda: maeri_like(num_ms=64, bandwidth=32),
    "maeri256": lambda: maeri_like(num_ms=256, bandwidth=128),
    "sigma256": lambda: sigma_like(num_ms=256, bandwidth=128),
}
DENSE_HARDWARE = ("tpu16", "tpu256", "maeri64", "maeri256")

#: the four purely-CNN models of the SNAPEA use case (Fig. 6)
SNAPEA_MODELS = ("alexnet", "squeezenet", "vgg16", "resnet50")
SNAPEA_BATCH = 2
SNAPEA_PES = 64

#: warm passes that reopen the cache after each cold pass
WARM_PASSES = 3


@dataclass
class Cell:
    """The outcome of one operation."""

    key: str  # the same in every round: what is being simulated, and how
    model: str
    seconds: float
    layers: int = 0
    sim_cycles: int = 0
    per_layer_cycles: tuple = ()
    #: host-speed scale factor in force when the cell ran
    scale: float = 1.0
    errors: List[str] = field(default_factory=list)
    #: what the cell returned, kept only until it is checked
    result: object = None


@dataclass
class Mode:
    """How a round is run: plain, under span tracing, or with ledgers."""

    recorder: object = None  # a spans.SpanRecorder while tracing
    ledgers: bool = False
    speed: object = None  # a hostspeed.HostSpeed in the timed phase

    def observability(self) -> Optional[Observability]:
        if self.ledgers:
            return Observability.create(stalls=True, fabric=True)
        return None


def _timed(key, model_name, mode, run) -> Cell:
    """Run ``run()`` as one cell; an error marks the cell failed."""
    scale = mode.speed.refresh() if mode.speed is not None else 1.0
    recorder = mode.recorder
    index = recorder.open("cell") if recorder is not None else None
    start = clock()
    try:
        result = run()
        cell = Cell(key, model_name, clock() - start, result=result)
    except Exception:  # a simulator fault fails this cell, not the run
        cell = Cell(key, model_name, clock() - start,
                    errors=[f"{key}: raised\n{traceback.format_exc()}"])
    finally:
        if recorder is not None:
            recorder.close(index)
    if mode.speed is not None and cell.seconds >= hostspeed.EVERY_S:
        # a long cell: the host's speed during it, from both ends
        scale = (scale + mode.speed.refresh(force=True)) / 2
    cell.scale = scale
    return cell


class _Forward:
    """Model forward, inside a ``frontend.forward`` span while tracing."""

    def __init__(self, model, recorder) -> None:
        self.model = model
        self.recorder = recorder

    def __enter__(self):
        if self.recorder is not None:
            self.model.forward = self.recorder.wrap(
                "frontend.forward", self.model.forward
            )
        return self.model

    def __exit__(self, *exc):
        if self.recorder is not None:
            del self.model.forward
        return False


class Workload:
    """Common set-up and reference bookkeeping."""

    name = ""
    #: the hostspeed kernel that resembles this workload's host work
    host_kernel = "interpreter"

    def __init__(self) -> None:
        self.models: Dict[str, object] = {}
        self.inputs: Dict[tuple, np.ndarray] = {}
        self._native: Dict[tuple, np.ndarray] = {}
        self._census: Dict[tuple, list] = {}
        self.first_cycles: Dict[str, tuple] = {}
        #: per-round figures that are not host times (for the trace view)
        self.round_stats: Dict[str, float] = {}

    def reference(self, model_name, seed):
        """Native output and layer census of one (model, input)."""
        key = (model_name, seed)
        if key not in self._native:
            model, x = self.models[model_name], self.inputs[key]
            self._native[key] = model(x)
            self._census[key] = checks.take_census(model, x)
        return self._native[key], self._census[key]

    def native_seconds(self, model_name, seed) -> float:
        """Host time of one native forward (no simulation context)."""
        model, x = self.models[model_name], self.inputs[(model_name, seed)]
        start = clock()
        model(x)
        return clock() - start


# ----------------------------------------------------------------------
# zoo_dense / zoo_sigma
# ----------------------------------------------------------------------
class Zoo(Workload):
    """Every Table I model on each configuration, one input per round."""

    def __init__(self, name, hardware) -> None:
        super().__init__()
        self.name = name
        self.hardware = {hw: HARDWARE[hw]() for hw in hardware}

    def setup(self, seeds) -> None:
        for model_name in MODEL_NAMES:
            self.models[model_name] = build_model(model_name, seed=MODEL_SEED)
            for seed in seeds:
                self.inputs[(model_name, seed)] = model_input(
                    model_name, batch=1, seed=seed
                )
        # first use of each configuration: lazy imports and per-config
        # tables, on the smallest model
        for config in self.hardware.values():
            self._simulate("squeezenet", seeds[0], config, Mode())

    def _simulate(self, model_name, seed, config, mode):
        model, x = self.models[model_name], self.inputs[(model_name, seed)]
        acc = Accelerator(config, observability=mode.observability())
        simulate(model, acc)
        try:
            with _Forward(model, mode.recorder):
                out = model(x)
        finally:
            detach_context(model)
        return out, acc.report

    def run_round(self, seed, mode: Mode) -> List[Cell]:
        cells = []
        for model_name in MODEL_NAMES:
            for hw, config in self.hardware.items():
                cell = _timed(
                    f"{model_name}/{hw}", model_name, mode,
                    lambda: self._simulate(model_name, seed, config, mode),
                )
                if cell.result is not None:
                    out, report = cell.result
                    self._check(cell, seed, out, report, config)
                    cell.result = None
                cells.append(cell)
        return cells

    def _check(self, cell, seed, out, report, config) -> None:
        native, census = self.reference(cell.model, seed)
        cycles = [layer.cycles for layer in report.layers]
        label = f"{cell.key}@{seed}"
        cell.layers = len(cycles)
        cell.sim_cycles = sum(cycles)
        cell.per_layer_cycles = tuple(cycles)
        cell.errors += checks.check_output(label, out, native)
        cell.errors += checks.check_cycle_bound(
            label, cycles, census, config.num_ms, config.is_sparse
        )
        cell.errors += checks.check_repeat(label, cycles, self.first_cycles)


# ----------------------------------------------------------------------
# snapea_batch
# ----------------------------------------------------------------------
class Snapea(Workload):
    """Baseline and SNAPEA (exact mode) on the four CNNs, image batches."""

    name = "snapea_batch"
    host_kernel = "numpy"

    def setup(self, seeds) -> None:
        for model_name in SNAPEA_MODELS:
            # unpruned with batchnorm folded, as in the SNAPEA use case
            model = build_model(model_name, seed=MODEL_SEED, prune=False)
            fold_batchnorms(model)
            self.models[model_name] = model
            for seed in seeds:
                self.inputs[(model_name, seed)] = model_input(
                    model_name, batch=SNAPEA_BATCH, seed=seed
                )
        self._simulate("squeezenet", seeds[0], True, Mode())

    def _simulate(self, model_name, seed, early, mode):
        model, x = self.models[model_name], self.inputs[(model_name, seed)]
        ctx = SnapeaContext(
            num_pes=SNAPEA_PES, bandwidth=SNAPEA_PES, early_termination=early
        )
        attach_context(model, ctx)
        try:
            with _Forward(model, mode.recorder):
                out = model(x)
        finally:
            detach_context(model)
        return out, ctx

    def run_round(self, seed, mode: Mode) -> List[Cell]:
        cells = []
        totals = {"base_cycles": 0, "snapea_cycles": 0, "base_ops": 0,
                  "snapea_ops": 0}
        for model_name in SNAPEA_MODELS:
            native, census = self.reference(model_name, seed)
            contexts = {}
            for label, early in (("baseline", False), ("snapea", True)):
                cell = _timed(
                    f"{model_name}/{label}", model_name, mode,
                    lambda: self._simulate(model_name, seed, early, mode),
                )
                cells.append(cell)
                if cell.result is None:
                    continue
                out, ctx = cell.result
                cell.result = None
                contexts[label] = ctx
                cycles = [layer.cycles for layer in ctx.layers]
                tag = f"{cell.key}@{seed}"
                cell.layers = len(cycles)
                cell.sim_cycles = sum(cycles)
                cell.per_layer_cycles = tuple(cycles)
                cell.errors += checks.check_output(tag, out, native)
                cell.errors += checks.check_repeat(
                    tag, cycles, self.first_cycles
                )
            if len(contexts) == 2:
                base, early = contexts["baseline"], contexts["snapea"]
                cells[-1].errors += checks.check_snapea(
                    f"{model_name}@{seed}", base.layers, early.layers, census
                )
                totals["base_cycles"] += base.total_cycles
                totals["snapea_cycles"] += early.total_cycles
                totals["base_ops"] += base.total_ops
                totals["snapea_ops"] += early.total_ops
        self.round_stats = {
            "opts.snapea.ops": totals["snapea_ops"],
            "opts.snapea.ops_saved_pct": 100.0 * (
                1.0 - totals["snapea_ops"] / totals["base_ops"]
            ) if totals["base_ops"] else 0.0,
            "opts.snapea.speedup_x": (
                totals["base_cycles"] / totals["snapea_cycles"]
                if totals["snapea_cycles"] else 0.0
            ),
        }
        return cells


# ----------------------------------------------------------------------
# sweep_cached
# ----------------------------------------------------------------------
class Sweep(Zoo):
    """The zoo_dense cells through ``simulate_parallel`` and a SimCache.

    Each round starts from an empty cache directory. The cold pass
    writes it; each warm pass opens a new ``SimCache`` on the same
    directory, as a new command-line invocation would, and reads it.
    """

    def __init__(self, workdir: Path) -> None:
        super().__init__("sweep_cached", DENSE_HARDWARE)
        self.workdir = workdir
        self._uncached: Dict[tuple, tuple] = {}
        self._rounds = 0

    def setup(self, seeds) -> None:
        super().setup(seeds)
        directory = self.workdir / f"simcache-{os.getpid()}-setup"
        try:
            for config in self.hardware.values():
                self._cached(
                    "squeezenet", seeds[0], config, SimCache(directory), Mode()
                )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _cached(self, model_name, seed, config, cache, mode):
        model, x = self.models[model_name], self.inputs[(model_name, seed)]
        acc = Accelerator(config)
        with _Forward(model, mode.recorder):
            result = simulate_parallel(model, acc, x, jobs=1, cache=cache)
        return result, acc.report

    def _uncached_cycles(self, model_name, hw, seed):
        key = (model_name, hw, seed)
        if key not in self._uncached:
            _, report = self._simulate(
                model_name, seed, self.hardware[hw], Mode()
            )
            self._uncached[key] = tuple(layer.cycles for layer in report.layers)
        return self._uncached[key]

    def run_round(self, seed, mode: Mode) -> List[Cell]:
        self._rounds += 1
        directory = self.workdir / f"simcache-{os.getpid()}-{self._rounds}"
        shutil.rmtree(directory, ignore_errors=True)
        cells = []
        try:
            for pass_index in range(1 + WARM_PASSES):
                phase = "cold" if pass_index == 0 else "warm"
                cache = SimCache(directory)
                for model_name in MODEL_NAMES:
                    for hw, config in self.hardware.items():
                        cell = _timed(
                            f"{phase}/{model_name}/{hw}", model_name, mode,
                            lambda: self._cached(
                                model_name, seed, config, cache, mode
                            ),
                        )
                        if cell.result is not None:
                            self._check_cached(cell, seed, hw, config, phase)
                            cell.result = None
                        cells.append(cell)
            self.round_stats = {
                "parallel.cache_disk_mb": cache.disk_bytes() / 1e6,
            }
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return cells

    def _check_cached(self, cell, seed, hw, config, phase) -> None:
        result, report = cell.result
        self._check(cell, seed, result.output, report, config)
        label = f"{cell.key}@{seed}"
        cell.errors += checks.check_same_cycles(
            label, cell.per_layer_cycles,
            self._uncached_cycles(cell.model, hw, seed),
        )
        if phase == "warm":
            cell.errors += checks.check_all_hits(
                label, result.cache_hits, result.simulated, cell.layers
            )


# ----------------------------------------------------------------------
# the timed phase
# ----------------------------------------------------------------------
#: zoo workloads whose traced run also measures the ledger overhead
LEDGER_WORKLOADS = ("zoo_dense", "zoo_sigma")


def measure(workload, seeds, seconds, speed):
    """Untraced timed phase: whole rounds until ``seconds`` have passed."""
    mode = Mode(speed=speed)
    rounds = []
    deadline = clock() + seconds
    while not rounds or clock() < deadline:
        seed = seeds[len(rounds) % len(seeds)]
        rounds.append(workload.run_round(seed, mode))
    return rounds


def measure_traced(workload, seeds, seconds, speed, recorder):
    """Each round plain, traced and (zoo only) with ledgers, back to back,
    in whole cycles of the input seeds so per-round counts repeat."""
    plain, traced, ledger, stats = [], [], [], []
    native = 0.0
    ledgers = workload.name in LEDGER_WORKLOADS
    deadline = clock() + seconds
    while not plain or clock() < deadline:
        for seed in seeds:
            plain.append(workload.run_round(seed, Mode(speed=speed)))
            stats.append(dict(workload.round_stats))
            with recorder.installed():
                traced.append(workload.run_round(
                    seed, Mode(recorder=recorder, speed=speed)
                ))
            if ledgers:
                ledger.append(workload.run_round(
                    seed, Mode(ledgers=True, speed=speed)
                ))
            forward = {
                name: workload.native_seconds(name, seed)
                for name in {cell.model for cell in plain[-1]}
            }
            native += sum(forward[cell.model] for cell in plain[-1])
    return plain, traced, ledger, stats, native


def make(name: str, workdir: Path) -> Workload:
    if name == "zoo_dense":
        return Zoo(name, DENSE_HARDWARE)
    if name == "zoo_sigma":
        return Zoo(name, ("sigma256",))
    if name == "snapea_batch":
        return Snapea()
    if name == "sweep_cached":
        return Sweep(workdir)
    raise ValueError(f"unknown workload {name!r}")


def report_errors(cells: List[Cell]) -> None:
    for cell in cells:
        for error in cell.errors:
            print(f"FAILED {error}", file=sys.stderr)
