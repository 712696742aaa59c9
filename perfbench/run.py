"""Run one workload of the simulator benchmark and print its metrics.

Usage, from the repository root::

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONHASHSEED=0 python3 perfbench/run.py \\
        --workload zoo_dense --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in
its own process, and prints a summary. ``--trace 1`` makes the traced
run: per-layer host times from spans, written to
``perfbench/_out/spans-<workload>-<seed>.json`` and read back from it.
``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import time

#: set-up time is measured from here: before NumPy and the simulator
#: are imported, after the interpreter itself has started
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

#: one BLAS thread whatever the caller's environment (the command in
#: BENCHMARK.json sets the same; this covers a bare ``python3`` call)
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: input seeds per run, derived from --seed; rounds cycle through them
INPUT_SEEDS = 3
#: set-up samples per run: this process plus fresh child processes
SETUP_SAMPLES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=spec.WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    return parser.parse_args(argv)


def _bootstrap() -> None:
    """Make the simulator importable from this checkout's sources."""
    for key, value in THREAD_ENV.items():
        os.environ.setdefault(key, value)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found under {src}")
    sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def tally(cells):
    """(attempted, failed): a cell with any check error counts failed."""
    return len(cells), sum(1 for cell in cells if cell.errors)


def _scaled_seconds(rounds):
    return sum(cell.seconds * cell.scale for cells in rounds for cell in cells)


def _end_to_end(rounds, setup_samples, tablev_err):
    """Scaled host times (see hostspeed.py) of the timed phase."""
    layers = sum(cell.layers for cells in rounds for cell in cells)
    return {
        "layers_per_s": layers / _scaled_seconds(rounds),
        # the median cell of each round, averaged over rounds: a
        # percentile pooled over cells of very different sizes jumps
        # between sizes (README.md, "Steadiness")
        "cell_ms_p50": 1000.0 * statistics.fmean(
            statistics.median(cell.seconds * cell.scale for cell in cells)
            for cells in rounds
        ),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tablev_err_pct": tablev_err,
    }


def _tablev():
    """Mean and per-design error of simulated cycles against Table V RTL."""
    from repro.experiments.tablev import VALIDATION_CASES, run_tablev

    rows = run_tablev()
    errors = []
    if len(rows) != len(VALIDATION_CASES):
        errors.append(f"tablev: {len(rows)} rows for {len(VALIDATION_CASES)} cases")
    by_design = {}
    for row, case in zip(rows, VALIDATION_CASES):
        # recomputed from the RTL cycles of the paper, not read back
        err = 100.0 * abs(row["repro_cycles"] - case.rtl_cycles) / case.rtl_cycles
        by_design.setdefault(case.design.lower(), []).append(err)
    every = [err for errs in by_design.values() for err in errs]
    per_design = {
        f"tablev.{design}_err_pct": statistics.fmean(errs)
        for design, errs in by_design.items()
    }
    return statistics.fmean(every), per_design, errors


def _probe_setup(args) -> float:
    """Set-up time of a fresh process: import, build, inputs, warm-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _traced_run(args, workload, seeds, speed, run_errors):
    """Per-layer metrics from the span file of a traced run."""
    import cells as cells_mod
    import spans

    recorder = spans.SpanRecorder()
    plain, traced, ledger, stats, native = cells_mod.measure_traced(
        workload, seeds, args.seconds, speed, recorder
    )
    path = OUT / f"spans-{args.workload}-{args.seed}.json"
    recorder.write(path)
    metrics = spans.layer_metrics(spans.load_spans(path), len(traced))

    sim_cycles = [sum(c.sim_cycles for c in cells) for cells in plain]
    for label, rounds in (("traced", traced), ("ledger", ledger)):
        for index, cells in enumerate(rounds):
            if sum(c.sim_cycles for c in cells) != sim_cycles[index]:
                run_errors.append(f"{label} round {index}: simulated cycles "
                                  "differ from the untraced round")
    plain_s = _scaled_seconds(plain)
    metrics.update({
        "frontend.slowdown_x": sum(
            c.seconds for cells in plain for c in cells
        ) / native,
        "engine.sim_cycles": statistics.fmean(sim_cycles),
        "engine.layers": statistics.fmean(
            sum(c.layers for c in cells) for cells in plain
        ),
        "observability.ledger_overhead_pct": (
            100.0 * (_scaled_seconds(ledger) / plain_s - 1.0) if ledger else 0.0
        ),
        "trace.overhead_pct": 100.0 * (_scaled_seconds(traced) / plain_s - 1.0),
    })
    for key in stats[0]:
        metrics[key] = statistics.fmean(s[key] for s in stats)
    for name, _, _ in spec.PER_LAYER:
        metrics.setdefault(name, 0.0)
    print(f"# {len(plain)} plain, {len(traced)} traced and {len(ledger)} "
          f"ledger rounds; spans in {path}", file=sys.stderr)
    return metrics, plain + traced + ledger


def run_workload(args) -> dict:
    _bootstrap()
    import cells as cells_mod
    from hostspeed import HostSpeed

    OUT.mkdir(exist_ok=True)
    seeds = [args.seed * 1000 + i for i in range(INPUT_SEEDS)]
    workload = cells_mod.make(args.workload, OUT)
    workload.setup(seeds)
    # set-up is interpreter and import work: the interpreter kernel
    setup_s = (time.perf_counter() - _T0) * HostSpeed().refresh()
    if args.setup_probe:
        return {"setup_s": setup_s}

    tablev_err, tablev_parts, run_errors = _tablev()
    speed = HostSpeed(workload.host_kernel)
    if args.trace:
        metrics, every_round = _traced_run(
            args, workload, seeds, speed, run_errors
        )
        metrics.update(tablev_parts)
        names = [name for name, _, _ in spec.PER_LAYER]
    else:
        every_round = cells_mod.measure(workload, seeds, args.seconds, speed)
        setup_samples = [setup_s] + [
            _probe_setup(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = _end_to_end(every_round, setup_samples, tablev_err)
        names = [name for name, *_ in spec.END_TO_END]
        print(f"# {len(every_round)} rounds; setup samples "
              + " ".join(f"{s:.3f}" for s in setup_samples), file=sys.stderr)

    all_cells = [cell for cells in every_round for cell in cells]
    cells_mod.report_errors(all_cells)
    for error in run_errors:
        print(f"FAILED {error}", file=sys.stderr)
    attempted, failed = tally(all_cells)
    return {
        "correct": not run_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": spec.UNITS[name]}
            for name in names
        },
    }


def run_all(args) -> dict:
    """Every workload in its own process; a summary table at the end."""
    results = {}
    for name in spec.WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited "
                             f"{done.returncode}")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        _print_metrics(results[name])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def _print_metrics(result) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'attempted':<36} {result['attempted']:>16d}")
    print(f"{'failed':<36} {result['failed']:>16d}", flush=True)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json(),
                                             encoding="utf-8")
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        if not args.setup_probe:
            _print_metrics(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
