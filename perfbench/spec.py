"""The benchmark's fixed form: command, workloads and metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the names the runner
prints and the names the file declares cannot drift apart.
"""

import json

#: NumPy's BLAS pool is held to one thread by the command itself, so the
#: load comes from one process and one thread whatever the host offers;
#: a fixed hash seed keeps set/dict iteration order identical run to run.
COMMAND = [
    "env",
    "OPENBLAS_NUM_THREADS=1",
    "OMP_NUM_THREADS=1",
    "MKL_NUM_THREADS=1",
    "PYTHONHASHSEED=0",
    "python3",
    "perfbench/run.py",
]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    ("zoo_dense",
     "default user path: 7 Table I models on TPU and MAERI presets in auto "
     "engine mode; frontend, vector/systolic engine and dense controller"),
    ("zoo_sigma",
     "the 7 models on sigma256; SparseController.run_spmm and ART allocation, "
     "the SIGMA hot path that zoo_dense bypasses"),
    ("snapea_batch",
     "4 CNNs folded and unpruned, baseline and SNAPEA over image batches; "
     "NumPy-bound opts.snapea, a Python-level speed-up shows nothing here"),
    ("sweep_cached",
     "zoo_dense cells through simulate_parallel with a fresh SimCache: one "
     "cold pass writes it, warm passes reopen and read it (the parallel layer)"),
]

#: (name, unit, better, bound). ``cell_ms_p90`` is deliberately absent:
#: see README.md, "Steadiness".
END_TO_END = [
    ("layers_per_s", "layers/s", "higher", 0.2),
    ("cell_ms_p50", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("tablev_err_pct", "%", "lower", 0.05),
]

#: (name, unit, better). Times and counts are per round (see README.md).
PER_LAYER = [
    ("frontend.forward_s", "s", "lower"),
    ("frontend.slowdown_x", "x", "lower"),
    ("engine.functional_s", "s", "lower"),
    ("engine.run_conv_s", "s", "lower"),
    ("engine.run_gemm_s", "s", "lower"),
    ("engine.run_spmm_s", "s", "lower"),
    ("engine.run_maxpool_s", "s", "lower"),
    ("engine.systolic.run_gemm_s", "s", "lower"),
    ("engine.systolic.run_gemm_calls", "count", "lower"),
    ("engine.conv.sim_cycles_per_s", "cycles/s", "higher"),
    ("engine.gemm.sim_cycles_per_s", "cycles/s", "higher"),
    ("engine.spmm.sim_cycles_per_s", "cycles/s", "higher"),
    ("engine.maxpool.sim_cycles_per_s", "cycles/s", "higher"),
    ("engine.sim_cycles", "cycles", "lower"),
    ("engine.layers", "count", "higher"),
    ("memory.dense_controller_s", "s", "lower"),
    ("memory.dense_controller_calls", "count", "lower"),
    ("memory.sparse_controller_s", "s", "lower"),
    ("memory.sparse_controller_calls", "count", "lower"),
    ("memory.spmm_rounds", "count", "lower"),
    ("noc.allocate_virtual_trees_s", "s", "lower"),
    ("noc.allocate_virtual_trees_calls", "count", "lower"),
    ("opts.snapea.conv_s", "s", "lower"),
    ("opts.snapea.ops", "count", "lower"),
    ("opts.snapea.ops_saved_pct", "%", "higher"),
    ("opts.snapea.speedup_x", "x", "higher"),
    ("parallel.record_s", "s", "lower"),
    ("parallel.cache_get_s", "s", "lower"),
    ("parallel.cache_put_s", "s", "lower"),
    ("parallel.cache_hits", "count", "higher"),
    ("parallel.cache_misses", "count", "lower"),
    ("parallel.cache_hit_pct", "%", "higher"),
    ("parallel.cache_disk_mb", "MB", "lower"),
    ("observability.ledger_overhead_pct", "%", "lower"),
    ("tablev.maeri_err_pct", "%", "lower"),
    ("tablev.sigma_err_pct", "%", "lower"),
    ("tablev.tpu_err_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> str:
    """The text of ``BENCHMARK.json``."""
    document = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
    return json.dumps(document, indent=2) + "\n"
