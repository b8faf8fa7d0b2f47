"""End-to-end benchmark of the Mosaic simulator's ``simulate`` runs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pilot-exec --seed 0 --seconds 30 --trace 0

Load is one closed-loop client: samples run one after another, each in
a fresh process that sets up its input (``import repro`` plus building
the workload's trace, or opening the cached replay CSV) and runs one
whole simulation. A run keeps starting samples until ``--seconds`` have
passed (at least three untraced samples, or one untraced/traced pair
with ``--trace 1``) and reports medians.

``--trace 0`` reports the end-to-end metrics (``run_s``, ``tx_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` alternates untraced and
traced samples and reports the per-layer self times and counts of the
traced ones (see ``layers.py``), plus the tracing overhead and the
share of the run attributed to named layers.

Every sample's output is checked: the digest of its epoch records
(host-timed fields excluded) must equal the digest pinned for the seed
in ``pinned_digests.json`` or, without a pin, the digest every other
sample of the same seed and program produced — traced or not, in this
run or an earlier one (``.bench_cache/digests.json``). Executed
workloads must also conserve value exactly and settle every evaluated
transaction. A sample that raises or fails a check counts in
``failed``; ``failed_frac`` is ``failed / attempted``.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record — run manifest
(git rev, source hash, versions, compiled paths, host, sizes, seed),
every sample and the traced samples' spans — is written to
``.bench_cache/results/``. The replay CSV is written once per seed and
size to ``.bench_cache/fixtures/``; its write time is logged, not part
of ``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PINNED = HERE / "pinned_digests.json"

#: Samples per run: untraced samples with ``--trace 0``, untraced/traced
#: pairs with ``--trace 1``.
MIN_SAMPLES = {False: 3, True: 1}
#: No sample starts once the run could not finish it within this many
#: seconds (the contract allows 180 per run).
RUN_BUDGET_S = 150.0
WORKER_TIMEOUT_S = 170.0
#: ROADMAP item 1: at least this share of a traced run must be
#: attributed to named layers.
ATTRIBUTION_FLOOR = 0.95
#: Fixtures kept in the cache (one ~84 MB CSV per full-size seed): enough
#: that a second set of ten seeds reuses the first set's files.
FIXTURES_KEPT = 12

END_TO_END_UNITS = {"run_s": "s", "tx_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "data.decode_s": "s",
    "data.decode_passes": "count",
    "data.decode_rows": "rows",
    "data.decode_rows_per_s": "rows/s",
    "data.decode_ratio": "ratio",
    "data.split_s": "s",
    "data.active_accounts_s": "s",
    "data.epochs_s": "s",
    "allocation.initialize_s": "s",
    "allocation.update_s": "s",
    "allocation.place_s": "s",
    "allocation.placed_accounts": "count",
    "allocation.migrations": "count",
    "allocation.proposed_migrations": "count",
    "allocation.accept_ratio": "ratio",
    "allocation.unit_time_us": "us",
    "allocation.input_bytes": "B",
    "metrics.epoch_s": "s",
    "chain.genesis_s": "s",
    "chain.execute_s": "s",
    "chain.executed_tx": "count",
    "chain.abort_frac": "ratio",
    "chain.reconfigure_s": "s",
    "chain.migrated_accounts": "count",
    "chain.place_s": "s",
    "chain.telemetry_s": "s",
    "engine.other_s": "s",
    "trace.attributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program to benchmark."""


def _spawn(job: dict) -> dict:
    """Run one worker process to completion; return its JSON result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    job = dict(job, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"worker exited {proc.returncode} without a result"}
    if "error" in out:
        out["error"] += proc.stderr[-2000:]
    return out


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout, not a clone
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(workload: workloads.Workload, scale: str, seed: int, seconds: float, traced: bool) -> dict:
    """What produced this run: program, toolchain, host and inputs."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program under {ROOT / 'src'}")
    probe = _spawn({"kind": "probe"})
    if "error" in probe:
        raise ProgramMissing(probe["error"])
    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_sha256(),
        **probe,
        "python_version": platform.python_version(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload.name,
        "method": workload.method,
        "execute_values": workload.execute,
        "scale": scale,
        "sizes": workloads.input_shape(workload, scale),
        "protocol": {"k": workloads.SHARDS, "eta": workloads.ETA, "tau": workloads.TAU},
        "seed": seed,
        "run_seconds": seconds,
        "traced": traced,
    }


def _ensure_fixture(workload: workloads.Workload, scale: str, seed: int) -> dict:
    path = workloads.fixture_path(ROOT, workload, scale, seed)
    if path.exists():
        path.touch()
        return {"path": str(path), "cached": True}
    out = _spawn({"kind": "fixture", "workload": workload.name, "scale": scale, "seed": seed, "fixture": str(path)})
    if "error" in out:
        raise RuntimeError(f"fixture write failed: {out['error']}")
    _log(f"fixture: wrote {out['rows']:,} rows to {path.name} in {out['write_s']:.2f}s (not in setup_s)")
    stale = sorted(path.parent.glob("*.csv"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in stale[FIXTURES_KEPT:]:
        old.unlink()
    return {"path": str(path), "cached": False, "write_s": out["write_s"]}


def _collect(job: dict, seconds: float, traced: bool, tamper: bool) -> List[dict]:
    """Closed loop: start samples one after another until time is up."""
    samples: List[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        for is_traced in ((False, True) if traced else (False,)):
            t0 = time.monotonic()
            sample = _spawn(dict(job, traced=is_traced, tamper=tamper and not samples))
            longest = max(longest, time.monotonic() - t0)
            sample["traced"] = is_traced
            samples.append(sample)
            if "error" in sample:
                _log(f"sample {len(samples)} raised:\n{sample['error']}")
            else:
                _log(
                    f"sample {len(samples)} ({'traced' if is_traced else 'untraced'}): "
                    f"setup {sample['setup_s']:.3f}s run {sample['run_s']:.3f}s "
                    f"(cpu {sample['run_cpu_s']:.3f}s) "
                    f"rss {sample['peak_rss_mb']:.1f}MB digest {sample['digest'][:12]}"
                )
        elapsed = time.monotonic() - started
        rounds = len(samples) // (2 if traced else 1)
        if rounds >= MIN_SAMPLES[traced] and elapsed >= seconds:
            return samples
        if elapsed + longest * (2 if traced else 1) > RUN_BUDGET_S:
            return samples


def _check(samples: List[dict], key: str, source_sha: str) -> None:
    """Mark each sample ``ok`` or give it the reasons it failed."""
    pinned = json.loads(PINNED.read_text()).get(key)
    cache_path = ROOT / ".bench_cache" / "digests.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    cache_key = f"{key}/src-{source_sha[:16]}"
    reference = pinned or cache.get(cache_key)
    finished = [s for s in samples if "error" not in s]
    if reference is None and finished:
        reference = Counter(s["digest"] for s in finished).most_common(1)[0][0]
    for sample in samples:
        if "error" in sample:
            sample["problems"] = ["raised"]
        elif sample["digest"] != reference:
            origin = "pinned" if pinned else "reference"
            sample["problems"].append(f"digest {sample['digest'][:12]} != {origin} {reference[:12]}")
        sample["ok"] = not sample["problems"]
    if finished and all(s["ok"] for s in samples) and cache_key not in cache:
        cache[cache_key] = reference
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True))


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(samples: List[dict]) -> Dict[str, float]:
    timed = [s for s in samples if "error" not in s and not s["traced"]]
    return {
        "run_s": _median([s["run_s"] for s in timed]),
        "tx_per_s": _median([s["rows"] / s["run_s"] for s in timed]),
        "setup_s": _median([s["setup_s"] for s in timed]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in timed]),
    }


def per_layer_metrics(samples: List[dict]) -> Dict[str, float]:
    finished = [s for s in samples if "error" not in s]
    traced = [s["layer_metrics"] for s in finished if s["traced"]]
    metrics = {name: _median([m[name] for m in traced]) for name in traced[0]}
    untraced_run = _median([s["run_s"] for s in finished if not s["traced"]])
    traced_run = _median([s["run_s"] for s in finished if s["traced"]])
    metrics["trace.overhead_frac"] = traced_run / untraced_run
    return metrics


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: str = "full",
    tamper: bool = False,
) -> dict:
    """Run one benchmark run; return its record.

    The record holds the manifest, every sample and, under ``result``,
    the object the result line prints. ``tamper`` corrupts the first
    sample's records after its run — the smoke tests use it to show a
    wrong output is counted as failed. Raises :class:`ProgramMissing`
    when the checkout has no program.
    """
    workload = workloads.WORKLOADS[workload_name]
    record = {"manifest": manifest(workload, scale, seed, seconds, traced)}
    _log(f"manifest: {json.dumps(record['manifest'], sort_keys=True)}")
    job = {"kind": "sample", "workload": workload.name, "scale": scale, "seed": seed}
    if workload.replay:
        record["fixture"] = _ensure_fixture(workload, scale, seed)
        job["fixture"] = record["fixture"]["path"]

    samples = _collect(job, seconds, traced, tamper)
    _check(samples, f"{workload.name}/{scale}/seed{seed}", record["manifest"]["source_sha256"])
    failed = sum(not s["ok"] for s in samples)
    for sample in samples:
        if sample["problems"]:
            _log(f"FAILED sample: {'; '.join(sample['problems'])}")

    completed = [s for s in samples if "error" not in s]
    needed = (False, True) if traced else (False,)
    if not all(any(s["traced"] == t for s in completed) for t in needed):
        raise RuntimeError("no sample completed; nothing to report")
    if traced:
        values = per_layer_metrics(samples)
        values["failed_frac"] = failed / len(samples)
        units = PER_LAYER_UNITS
        if values["trace.attributed_frac"] < ATTRIBUTION_FLOOR:
            record["attribution_flag"] = (
                f"only {values['trace.attributed_frac']:.1%} of the traced run "
                f"is attributed to named layers (floor {ATTRIBUTION_FLOOR:.0%})"
            )
            _log(f"WARNING {workload.name}: {record['attribution_flag']}")
    else:
        values = end_to_end_metrics(samples)
        units = END_TO_END_UNITS

    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(samples=samples, result=result)
    out_dir = ROOT / ".bench_cache" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{workload.name}-{scale}-seed{seed}-trace{int(traced)}.json"
    out_path.write_text(json.dumps(record, indent=1))
    _log(f"record written to {out_path.relative_to(ROOT)}")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except ProgramMissing as exc:
        _log(f"error: cannot benchmark: {exc}")
        return 2
    except RuntimeError as exc:
        _log(f"error: {exc}")
        return 1
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
