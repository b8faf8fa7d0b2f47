"""Workload definitions: inputs built from the seed, engine and checks.

Three workloads, each one closed-loop client running one simulation at
a time in its own process:

* ``pilot-exec`` — synthetic trace, ``mosaic-pilot`` with value
  execution (allocator-dominated: TxAllo initial mapping, Pilot client
  updates, executed transfers with real migrations);
* ``hash-exec`` — the same trace and configuration with ``hash-random``
  (a static mapping, so value execution dominates);
* ``hash-replay`` — a valued ethereum-etl CSV replayed metrics-only
  through ``StreamingSimulation(CsvTraceSource(path))`` (decode-bound,
  the chain layer is never called).

This module imports no repro code at import time; the orchestrating
process reads the specs without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List

#: Epoch-record fields timed on the host; excluded from the digest.
HOST_TIMED_FIELDS = ("execution_time", "unit_time")

#: Conservation tolerance of ``tests/test_conservation_engine.py``.
CONSERVATION_ABS_TOL = 1e-9

#: Protocol configuration shared by every workload (the CLI's defaults
#: except ``tau``); the history split is the default 0.9 fraction.
SHARDS = 16
ETA = 2.0
TAU = 300
PROTOCOL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    execute: bool
    replay: bool
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pilot-exec",
            "mosaic-pilot",
            execute=True,
            replay=False,
            why="the paper's system: TxAllo initial mapping, Pilot client "
            "updates and executed transfers with migrations share the run",
        ),
        Workload(
            "hash-exec",
            "hash-random",
            execute=True,
            replay=False,
            why="static mapping, so value execution dominates; bypasses "
            "Pilot and TxAllo",
        ),
        Workload(
            "hash-replay",
            "hash-random",
            execute=False,
            replay=True,
            why="metrics-only CSV replay through the windowed engine: decode "
            "dominates and the chain layer is never called",
        ),
    )
}

#: Input sizes per scale. ``full`` is what the benchmark measures;
#: ``tiny`` drives the smoke tests.
SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "synthetic": {
            "n_accounts": 200_000,
            "n_transactions": 1_000_000,
            "n_blocks": 30_000,
        },
        "replay": {
            "n_accounts": 100_000,
            "n_transactions": 500_000,
            "n_blocks": 15_000,
        },
    },
    "tiny": {
        "synthetic": {
            "n_accounts": 3_000,
            "n_transactions": 20_000,
            "n_blocks": 6_000,
        },
        "replay": {
            "n_accounts": 2_000,
            "n_transactions": 10_000,
            "n_blocks": 6_000,
        },
    },
}


def input_shape(workload: Workload, scale: str) -> Dict[str, int]:
    return SCALES[scale]["replay" if workload.replay else "synthetic"]


def trace_config(workload: Workload, scale: str, seed: int):
    """The generator config of the workload's input (the CLI hub shape)."""
    from repro.data.ethereum import EthereumTraceConfig

    value_model = None
    if workload.replay:
        from repro.data.generators import ValueModelConfig

        value_model = ValueModelConfig(kind="zipf", fee_fraction=0.01)
    return EthereumTraceConfig(
        **input_shape(workload, scale),
        hub_fraction=0.01,
        hub_transaction_share=0.12,
        seed=seed,
        value_model=value_model,
    )


def fixture_path(root: Path, workload: Workload, scale: str, seed: int) -> Path:
    rows = input_shape(workload, scale)["n_transactions"]
    return root / ".bench_cache" / "fixtures" / f"{workload.name}-{rows}rows-seed{seed}.csv"


def write_fixture(path: Path, workload: Workload, scale: str, seed: int) -> int:
    """Write the replay CSV through the public ETL writer; return rows."""
    from repro.data.ethereum import generate_ethereum_like_trace
    from repro.data.etl import write_transactions_csv

    trace = generate_ethereum_like_trace(trace_config(workload, scale, seed))
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    rows = write_transactions_csv(partial, trace)
    # Flush now, so disk write-back does not overlap the timed samples.
    with partial.open("rb") as handle:
        os.fsync(handle.fileno())
    partial.replace(path)
    return rows


def build_input(workload: Workload, scale: str, seed: int, fixture: str):
    """Return ``(input, rows)``: a ``Trace``, or a ``CsvTraceSource``."""
    if workload.replay:
        from repro.data.source import CsvTraceSource

        source = CsvTraceSource(fixture)
        return source, input_shape(workload, scale)["n_transactions"]
    from repro.data.ethereum import generate_ethereum_like_trace

    trace = generate_ethereum_like_trace(trace_config(workload, scale, seed))
    return trace, len(trace)


def simulation_config(workload: Workload):
    from repro.chain.params import ProtocolParams
    from repro.sim.engine import SimulationConfig

    return SimulationConfig(
        params=ProtocolParams(k=SHARDS, eta=ETA, tau=TAU, seed=PROTOCOL_SEED),
        execute_values=workload.execute,
        state_backend="dense",
    )


def build_engine(workload: Workload, data: Any, allocator: Any):
    """The engine front end the workload's CLI path constructs."""
    from repro.sim.engine import Simulation, StreamingSimulation

    config = simulation_config(workload)
    if workload.replay:
        return StreamingSimulation(data, allocator, config)
    return Simulation(data, allocator, config)


def new_allocator(workload: Workload):
    from repro.sim.scenario import DEFAULT_METHODS

    return DEFAULT_METHODS[workload.method]()


def records_digest(records: List[Any]) -> str:
    """SHA-256 of the epoch records without their host-timed fields."""
    rows = []
    for record in records:
        row = asdict(record)
        for name in HOST_TIMED_FIELDS:
            del row[name]
        rows.append(row)
    text = json.dumps(rows, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def output_problems(workload: Workload, result: Any, substrate: Any) -> List[str]:
    """Invariant violations of one finished run (empty when it is sound)."""
    problems = []
    if result.epochs < 1 or result.total_transactions < 1:
        problems.append(f"empty run: {result.epochs} epochs, {result.total_transactions} tx")
    if not workload.execute:
        return problems
    if substrate is None:
        return problems + ["executed run left no substrate"]
    drift = abs(substrate.total_value() - substrate.genesis_supply)
    if not math.isfinite(drift) or drift > CONSERVATION_ABS_TOL:
        problems.append(f"value not conserved: |total - genesis| = {drift!r}")
    settled = result.total_executed_transactions + result.total_overdraft_aborts
    if settled != result.total_transactions:
        problems.append(
            f"executed {result.total_executed_transactions} + aborted "
            f"{result.total_overdraft_aborts} != evaluated {result.total_transactions}"
        )
    return problems
