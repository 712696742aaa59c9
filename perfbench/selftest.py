"""Self-test: tampered results must be counted as failed operations.

Runs one round of three workloads with a single cell's result tampered
between the program and the checks, and expects exactly the tampered
cells to be counted failed while the run goes on:

- a layer whose cycles fall below ceil(MACs / multipliers);
- a cell that raises instead of returning;
- a cached cell whose per-layer cycles differ from the uncached run
  (one failure per warm pass);
- a SNAPEA layer with more operations than its baseline.

Usage, from the repository root::

    python3 perfbench/selftest.py

Exits 0 when every tampering is caught, 1 otherwise.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

import run

run._bootstrap()

import cells  # noqa: E402
from repro.errors import SimulationError  # noqa: E402

SEED = 7


class BelowBound(cells.Zoo):
    def _simulate(self, model_name, seed, config, mode):
        out, report = super()._simulate(model_name, seed, config, mode)
        if (model_name, config.num_ms) == ("squeezenet", 16):
            report.layers[0] = dataclasses.replace(report.layers[0], cycles=1)
        if (model_name, config.num_ms) == ("alexnet", 256) and not config.is_systolic:
            raise SimulationError("injected fault")
        return out, report


class CachedDiffers(cells.Sweep):
    def _cached(self, model_name, seed, config, cache, mode):
        result, report = super()._cached(model_name, seed, config, cache, mode)
        if model_name == "bert" and config.num_ms == 64 and not result.simulated:
            layer = report.layers[3]
            report.layers[3] = dataclasses.replace(layer, cycles=layer.cycles + 1)
        return result, report


class MoreOps(cells.Snapea):
    def _simulate(self, model_name, seed, early, mode):
        out, ctx = super()._simulate(model_name, seed, early, mode)
        if model_name == "squeezenet" and early:
            layer = ctx.layers[1]
            ctx.layers[1] = dataclasses.replace(layer, ops=layer.dense_ops + 1)
        return out, ctx


def _failed(round_cells):
    return sorted(cell.key for cell in round_cells if cell.errors)


def main() -> int:
    seeds = [SEED]
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        sweep = CachedDiffers(Path(workdir))
        cases = [
            (BelowBound("zoo_dense", cells.DENSE_HARDWARE),
             ["alexnet/maeri256", "squeezenet/tpu16"]),
            (sweep, ["warm/bert/maeri64"] * cells.WARM_PASSES),
            (MoreOps(), ["squeezenet/snapea"]),
        ]
        ok = True
        for workload, expected in cases:
            workload.setup(seeds)
            round_cells = workload.run_round(SEED, cells.Mode())
            attempted, failed = run.tally(round_cells)
            caught = _failed(round_cells) == sorted(expected)
            ok &= caught and failed == len(expected) and attempted > failed
            print(f"{type(workload).__name__:<14} attempted {attempted:4d} "
                  f"failed {failed} {'caught' if caught else 'MISSED'} "
                  f"{_failed(round_cells)}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
