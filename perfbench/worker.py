"""One benchmark process: probe the program, write a fixture, or run once.

Invoked by ``run.py`` as ``python3 perfbench/worker.py '<job json>'``
with the checkout's ``src`` on ``PYTHONPATH``; prints one JSON object as
its last stdout line. Job kinds:

* ``probe`` — import the program and report the versions and compiled
  paths that go into the run manifest;
* ``fixture`` — write the replay CSV for a seed;
* ``sample`` — set up the workload's input, run one simulation
  (traced or not) and check its output.

A ``sample`` measures ``setup_s`` from ``spawned`` — the orchestrator's
``time.monotonic()`` just before it started this process — to inputs
ready, and ``run_s`` from engine construction to ``run()`` returning.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def probe(job: dict) -> dict:
    import numpy

    import repro
    from repro.experiments import compiled_env

    return {
        "repro_version": repro.__version__,
        "numpy_version": numpy.__version__,
        "compiled_env": compiled_env(),
    }


def fixture(job: dict) -> dict:
    import workloads

    workload = workloads.WORKLOADS[job["workload"]]
    started = time.perf_counter()
    rows = workloads.write_fixture(Path(job["fixture"]), workload, job["scale"], job["seed"])
    return {"rows": rows, "write_s": time.perf_counter() - started}


def sample(job: dict) -> dict:
    import workloads

    workload = workloads.WORKLOADS[job["workload"]]
    data, rows = workloads.build_input(workload, job["scale"], job["seed"], job.get("fixture"))
    setup_s = time.monotonic() - job["spawned"]

    recorder = None
    if job["traced"]:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        with layers.installed(recorder):
            run_span = recorder.begin(layers.RUN)
            started, started_cpu = time.perf_counter(), time.process_time()
            allocator = layers.SpanAllocator(workloads.new_allocator(workload), recorder)
            wrapped = (
                layers.SpanSource(data, recorder)
                if workload.replay
                else layers.SpanTraceView(data, recorder)
            )
            engine = workloads.build_engine(workload, wrapped, allocator)
            result = engine.run()
            run_s = time.perf_counter() - started
            run_cpu_s = time.process_time() - started_cpu
            recorder.end(run_span)
    else:
        started, started_cpu = time.perf_counter(), time.process_time()
        engine = workloads.build_engine(workload, data, workloads.new_allocator(workload))
        result = engine.run()
        run_s = time.perf_counter() - started
        run_cpu_s = time.process_time() - started_cpu

    if job.get("tamper"):
        result.records[0].cross_shard_ratio += 1e-3

    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "rows": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workloads.records_digest(result.records),
        "problems": workloads.output_problems(workload, result, engine.substrate),
        "epochs": result.epochs,
        "evaluated_tx": result.total_transactions,
        "executed_tx": result.total_executed_transactions,
        "overdraft_aborts": result.total_overdraft_aborts,
    }
    if recorder is not None:
        out["layer_metrics"] = layers.layer_metrics(recorder, result, rows)
        out["spans"] = recorder.as_records()
    return out


def main(argv: list) -> int:
    job = json.loads(argv[1])
    handlers = {"probe": probe, "fixture": fixture, "sample": sample}
    try:
        out = handlers[job["kind"]](job)
    except Exception:  # noqa: BLE001 - reported to the orchestrator as a failed run
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
