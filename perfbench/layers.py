"""Outside-in layer spans around the public calls of each repro layer.

Nothing here edits the program. The traced worker process wraps the
objects it hands to the engine (the trace or trace source, and the
allocator) and, for the duration of :func:`installed`, binds span
recording subclasses or wrappers in place of four names the engine
looks up at call time:

* ``repro.sim.engine.ExecutionSubstrate`` — the ``repro.chain`` layer
  (genesis, execute, reconfigure, placement mirror, telemetry);
* ``repro.sim.engine.epoch_metrics`` — the ``repro.sim.metrics`` layer;
* ``repro.sim.engine.Trace`` — the history trace the streaming front
  end assembles, so its ``active_accounts()`` is timed;
* ``repro.data.source.EpochStream`` — the streaming front end's
  epoch-view iterator.

Untraced processes never import this module, so the end-to-end numbers
are measured on the unmodified program.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

from spans import SpanRecorder

from repro.allocation.base import Allocator
from repro.data.source import TraceSource

#: Span names, one per layer boundary. ``run`` is the whole engine run.
RUN = "run"
DECODE = "data.decode"
SPLIT = "data.split"
ACTIVE = "data.active_accounts"
EPOCHS = "data.epochs"
INITIALIZE = "allocation.initialize"
UPDATE = "allocation.update"
PLACE = "allocation.place"
METRICS = "metrics.epoch"
GENESIS = "chain.genesis"
EXECUTE = "chain.execute"
RECONFIGURE = "chain.reconfigure"
CHAIN_PLACE = "chain.place"
TELEMETRY = "chain.telemetry"

LAYER_SPANS = (
    DECODE,
    SPLIT,
    ACTIVE,
    EPOCHS,
    INITIALIZE,
    UPDATE,
    PLACE,
    METRICS,
    GENESIS,
    EXECUTE,
    RECONFIGURE,
    CHAIN_PLACE,
    TELEMETRY,
)


class SpanTraceView:
    """Materialised-trace proxy for :class:`~repro.sim.engine.Simulation`.

    Times ``split`` (returning proxies of the halves),
    ``active_accounts`` and each epoch-view ``next()``; every other
    attribute is the wrapped :class:`~repro.data.trace.Trace`'s own.
    """

    def __init__(self, trace: Any, recorder: SpanRecorder) -> None:
        self.trace = trace
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self.trace, name)

    def __len__(self) -> int:
        return len(self.trace)

    def split(self, fraction: float) -> Tuple["SpanTraceView", "SpanTraceView"]:
        with self._recorder.span(SPLIT):
            head, tail = self.trace.split(fraction)
        return SpanTraceView(head, self._recorder), SpanTraceView(tail, self._recorder)

    def active_accounts(self):
        with self._recorder.span(ACTIVE):
            return self.trace.active_accounts()

    def epochs(self, tau: int, max_epochs: Optional[int] = None):
        return self._recorder.timed_iter(EPOCHS, self.trace.epochs(tau, max_epochs))


def unwrap(trace: Any) -> Any:
    """The real trace behind a :class:`SpanTraceView` (or ``trace``)."""
    return trace.trace if isinstance(trace, SpanTraceView) else trace


class SpanSource(TraceSource):
    """Trace-source proxy timing each decoded chunk."""

    def __init__(self, inner: TraceSource, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.name = inner.name
        self.unbounded = inner.unbounded
        self._recorder = recorder

    def _decoded(self, chunk: Any) -> None:
        self._recorder.count("data.decode_rows", len(chunk))

    def chunks(self):
        self._recorder.count("data.decode_passes")
        return self._recorder.timed_iter(DECODE, self.inner.chunks(), self._decoded)

    def resolved_n_accounts(self):
        return self.inner.resolved_n_accounts()

    def size_hint(self):
        return self.inner.size_hint()

    def sizing_index(self):
        return self.inner.sizing_index()


class SpanAllocator(Allocator):
    """Allocator proxy: delegates the three engine calls inside spans."""

    def __init__(self, inner: Allocator, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.name = inner.name
        self._recorder = recorder

    def initialize(self, history, params):
        with self._recorder.span(INITIALIZE):
            return self.inner.initialize(unwrap(history), params)

    def update(self, mapping, context):
        with self._recorder.span(UPDATE):
            return self.inner.update(mapping, context)

    def place_new_accounts(self, new_account_ids, mapping, context=None):
        self._recorder.count("allocation.placed_accounts", len(new_account_ids))
        with self._recorder.span(PLACE):
            return self.inner.place_new_accounts(new_account_ids, mapping, context)


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Bind span-recording engine collaborators; restore them on exit."""
    import repro.data.source as source_module
    import repro.sim.engine as engine_module

    base_substrate = engine_module.ExecutionSubstrate
    base_metrics = engine_module.epoch_metrics
    base_trace = engine_module.Trace
    base_stream = source_module.EpochStream
    span = recorder.span

    class SpanSubstrate(base_substrate):
        def __init__(self, *args, **kwargs):
            with span(GENESIS):
                super().__init__(*args, **kwargs)

        def place_new_accounts(self, accounts, shards):
            with span(CHAIN_PLACE):
                super().place_new_accounts(accounts, shards)

        def execute_epoch(self, batch):
            with span(EXECUTE):
                return super().execute_epoch(batch)

        def reconfigure(self, epoch, target):
            with span(RECONFIGURE):
                report = super().reconfigure(epoch, target)
            recorder.count("chain.migrated_accounts", report.migrations_applied)
            return report

        def state_telemetry(self):
            with span(TELEMETRY):
                return super().state_telemetry()

    def span_metrics(*args, **kwargs):
        with span(METRICS):
            return base_metrics(*args, **kwargs)

    class SpanTrace(base_trace):
        def active_accounts(self):
            with span(ACTIVE):
                return super().active_accounts()

    class SpanEpochStream(base_stream):
        def __iter__(self):
            return recorder.timed_iter(EPOCHS, super().__iter__())

    engine_module.ExecutionSubstrate = SpanSubstrate
    engine_module.epoch_metrics = span_metrics
    engine_module.Trace = SpanTrace
    source_module.EpochStream = SpanEpochStream
    try:
        yield
    finally:
        engine_module.ExecutionSubstrate = base_substrate
        engine_module.epoch_metrics = base_metrics
        engine_module.Trace = base_trace
        source_module.EpochStream = base_stream


def layer_metrics(recorder: SpanRecorder, result: Any, rows: int) -> dict:
    """Per-layer metrics of one traced run: self times plus counts.

    Each ``<layer>_s`` is the self time of the ``<layer>`` spans;
    ``engine.other_s`` is the self time of the whole-run span, i.e. the
    part of the run no named layer claimed.
    """
    self_times = recorder.self_times()
    counters = recorder.counters
    metrics = {f"{name}_s": self_times.get(name, 0.0) for name in LAYER_SPANS}
    decode_rows = counters.get("data.decode_rows", 0)
    decode_s = metrics[f"{DECODE}_s"]
    proposed = result.total_proposed_migrations
    metrics.update(
        {
            "data.decode_passes": counters.get("data.decode_passes", 0),
            "data.decode_rows": decode_rows,
            "data.decode_rows_per_s": decode_rows / decode_s if decode_s else 0.0,
            "data.decode_ratio": decode_rows / rows,
            "allocation.placed_accounts": counters.get("allocation.placed_accounts", 0),
            "allocation.migrations": result.total_migrations,
            "allocation.proposed_migrations": proposed,
            # 0 when nothing was proposed (static mappings never propose).
            "allocation.accept_ratio": result.total_migrations / proposed if proposed else 0.0,
            "allocation.unit_time_us": result.mean_unit_time * 1e6,
            "allocation.input_bytes": result.mean_input_bytes,
            "chain.executed_tx": result.total_executed_transactions,
            "chain.abort_frac": result.total_overdraft_aborts / result.total_transactions,
            "chain.migrated_accounts": counters.get("chain.migrated_accounts", 0),
            "engine.other_s": self_times[RUN],
            "trace.attributed_frac": 1.0 - self_times[RUN] / sum(self_times.values()),
        }
    )
    return metrics
