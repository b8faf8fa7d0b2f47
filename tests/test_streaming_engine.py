"""The engine front end's equivalence and protocol tests.

The contract under test: ``StreamingSimulation(source, ...)`` — and so
``Simulation(trace, ...)``, the same front end over a one-chunk source
— produces **bit-identical** epoch records and state roots to the
materialised reference in ``tests/oracles/materialised_engine.py`` for
every bounded source kind, chunking, history split and engine mode:
how the trace arrives is a memory-shape change, never a results
change. The unbounded (follow) protocol additionally pins its typed
preconditions and its determinism across live-tail and static replays.
"""

import threading
import time
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.materialised_engine import MaterialisedSimulation

from repro.allocation.hash_based import HashAllocator
from repro.allocation.metis_like import MetisLikeAllocator
from repro.chain.params import ProtocolParams
from repro.data.ethereum import (
    EthereumTraceConfig,
    generate_ethereum_like_trace,
)
from repro.data.etl import write_transactions_csv
from repro.data.generators import ValueModelConfig
from repro.data.source import (
    ChunkIteratorSource,
    CsvTraceSource,
    FollowCsvTraceSource,
    GeneratorTraceSource,
    MaterialisedTraceSource,
)
from repro.errors import DataError, SimulationError
from repro.sim.engine import Simulation, SimulationConfig, StreamingSimulation

#: Epoch-record fields timed on the host; every other field is
#: deterministic and compared.
HOST_TIMED_FIELDS = ("execution_time", "unit_time")

PLAIN_CONFIG = EthereumTraceConfig(
    n_accounts=400, n_transactions=5_000, n_blocks=400, seed=23
)
VALUED_CONFIG = EthereumTraceConfig(
    n_accounts=400,
    n_transactions=5_000,
    n_blocks=400,
    seed=23,
    value_model=ValueModelConfig(fee_fraction=0.02),
)


def params(**overrides):
    defaults = dict(k=4, eta=2.0, tau=40, seed=7)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def deterministic_fields(record):
    row = asdict(record)
    for name in HOST_TIMED_FIELDS:
        del row[name]
    return row


def assert_identical_records(streamed, materialised):
    """Bit-exact equality on every deterministic record field."""
    assert streamed.records, "run produced no epochs"
    assert len(streamed.records) == len(materialised.records)
    for left, right in zip(streamed.records, materialised.records):
        assert deterministic_fields(left) == deterministic_fields(right), (
            left.epoch
        )


def state_roots(engine):
    """Per-shard state roots of an executed run's substrate."""
    registry = engine.substrate.registry
    k = engine.config.params.k
    return [registry.store_of(shard).state_root() for shard in range(k)]


class TestWindowedEquivalence:
    def test_materialised_source_size_hint_fast_path(self):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        config = SimulationConfig(params=params())
        streamed = StreamingSimulation(
            MaterialisedTraceSource(trace, chunk_rows=701),
            HashAllocator(),
            config,
        ).run()
        materialised = MaterialisedSimulation(
            trace, HashAllocator(), config
        ).run()
        assert_identical_records(streamed, materialised)

    def test_generator_source(self):
        config = SimulationConfig(params=params())
        streamed = StreamingSimulation(
            GeneratorTraceSource(PLAIN_CONFIG, chunk_rows=613),
            MetisLikeAllocator(seed=7),
            config,
        ).run()
        materialised = MaterialisedSimulation(
            generate_ethereum_like_trace(PLAIN_CONFIG),
            MetisLikeAllocator(seed=7),
            config,
        ).run()
        assert_identical_records(streamed, materialised)

    def test_csv_two_pass_protocol(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_transactions_csv(path, generate_ethereum_like_trace(PLAIN_CONFIG))
        config = SimulationConfig(params=params())
        streamed = StreamingSimulation(
            CsvTraceSource(path, chunk_rows=599),
            HashAllocator(),
            config,
        ).run()
        # The reference materialises the *same* source kind: CSV account
        # ids are registry-assigned in first-seen order, so only another
        # decode of the same file shares the id space.
        materialised = MaterialisedSimulation(
            CsvTraceSource(path, chunk_rows=599).materialise(),
            HashAllocator(),
            config,
        ).run()
        assert_identical_records(streamed, materialised)

    def test_history_epochs_split(self):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        config = SimulationConfig(params=params(), history_epochs=3)
        streamed = StreamingSimulation(
            MaterialisedTraceSource(trace, chunk_rows=701),
            HashAllocator(),
            config,
        ).run()
        materialised = MaterialisedSimulation(
            trace, HashAllocator(), config
        ).run()
        assert_identical_records(streamed, materialised)
        # The absolute split actually moved: 3 history epochs leave more
        # evaluation epochs than the default 90% fraction does.
        default_run = Simulation(
            trace, HashAllocator(), SimulationConfig(params=params())
        ).run()
        assert len(materialised.records) > len(default_run.records)

    def test_executed_observed_funding_over_csv(self, tmp_path):
        path = tmp_path / "valued.csv"
        write_transactions_csv(
            path, generate_ethereum_like_trace(VALUED_CONFIG)
        )
        config = SimulationConfig(
            params=params(),
            execute_values=True,
            funding="observed",
        )
        streamed = StreamingSimulation(
            CsvTraceSource(path, chunk_rows=599),
            HashAllocator(),
            config,
        ).run()
        materialised = MaterialisedSimulation(
            CsvTraceSource(path, chunk_rows=599).materialise(),
            HashAllocator(),
            config,
        ).run()
        assert any(r.executed_transactions for r in streamed.records)
        assert_identical_records(streamed, materialised)

    def test_executed_run_with_zero_value_prefix(self, tmp_path):
        """Lazy value activation mid-file must not change executed bits.

        The chunked decoder keeps the value column inactive until the
        first nonzero value, so pre-activation chunks are valueless;
        the engine's second pass re-materialises explicit zero columns
        (a valueless batch would otherwise transfer the 1.0 default).
        """
        trace = generate_ethereum_like_trace(VALUED_CONFIG)
        cut = int(len(trace) * 0.6)
        trace.batch.values[:cut] = 0.0
        path = tmp_path / "zero_prefix.csv"
        write_transactions_csv(path, trace)
        config = SimulationConfig(
            params=params(),
            execute_values=True,
            funding="observed",
        )
        streamed = StreamingSimulation(
            CsvTraceSource(path, chunk_rows=599),
            HashAllocator(),
            config,
        ).run()
        materialised = MaterialisedSimulation(
            CsvTraceSource(path, chunk_rows=599).materialise(),
            HashAllocator(),
            config,
        ).run()
        assert_identical_records(streamed, materialised)

    def test_beacon_spill_matches_in_memory_run(self, tmp_path):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        base = dict(params=params(), execute_values=True)
        spilled = Simulation(
            trace,
            MetisLikeAllocator(seed=7),
            SimulationConfig(beacon_spill_dir=str(tmp_path), **base),
        ).run()
        in_memory = Simulation(
            trace, MetisLikeAllocator(seed=7), SimulationConfig(**base)
        ).run()
        assert_identical_records(spilled, in_memory)
        assert any(r.migrations for r in spilled.records)
        assert list(tmp_path.glob("seg-*.mrlog")), "no segments spilled"


#: A small valued trace for the front-end property: 10 ``tau=20``
#: epochs, small enough that one-row chunks stay fast.
PROPERTY_TRACE = generate_ethereum_like_trace(
    EthereumTraceConfig(
        n_accounts=120,
        n_transactions=900,
        n_blocks=200,
        seed=5,
        value_model=ValueModelConfig(fee_fraction=0.02),
    )
)

ENGINE_MODES = {
    "metrics": {},
    "executed-uniform": dict(execute_values=True, state_backend="dense"),
    "executed-observed": dict(execute_values=True, funding="observed"),
}

HISTORY_SPLITS = st.one_of(
    st.just({}),
    st.sampled_from([0.0, 1.0]).map(lambda f: {"history_fraction": f}),
    st.floats(0.0, 1.0).map(lambda f: {"history_fraction": f}),
    st.integers(0, 12).map(lambda e: {"history_epochs": e}),
)


class TestFrontEndProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        chunk_rows=st.one_of(
            st.just(len(PROPERTY_TRACE)), st.integers(1, len(PROPERTY_TRACE))
        ),
        split=HISTORY_SPLITS,
        oracle_mode=st.sampled_from(["lookahead", "trailing"]),
        max_epochs=st.one_of(st.none(), st.integers(1, 12)),
        mode=st.sampled_from(sorted(ENGINE_MODES)),
    )
    def test_matches_materialised_oracle(
        self, chunk_rows, split, oracle_mode, max_epochs, mode
    ):
        config = SimulationConfig(
            params=params(tau=20),
            oracle_mode=oracle_mode,
            max_epochs=max_epochs,
            **split,
            **ENGINE_MODES[mode],
        )
        engine = StreamingSimulation(
            MaterialisedTraceSource(PROPERTY_TRACE, chunk_rows=chunk_rows),
            MetisLikeAllocator(seed=7),
            config,
        )
        oracle = MaterialisedSimulation(
            PROPERTY_TRACE, MetisLikeAllocator(seed=7), config
        )
        streamed = engine.run()
        materialised = oracle.run()
        assert [deterministic_fields(r) for r in streamed.records] == [
            deterministic_fields(r) for r in materialised.records
        ]
        if config.execute_values:
            assert state_roots(engine) == state_roots(oracle)
        else:
            assert engine.substrate is None


class TestHistoryKnobs:
    def test_fraction_and_epochs_are_mutually_exclusive(self):
        with pytest.raises(SimulationError, match="mutually exclusive"):
            SimulationConfig(
                params=params(), history_fraction=0.5, history_epochs=2
            )

    def test_negative_history_epochs_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(params=params(), history_epochs=-1)

    def test_default_fraction_applies_when_neither_set(self):
        config = SimulationConfig(params=params())
        assert config.resolved_history_fraction == pytest.approx(0.9)


class TestUnboundedProtocol:
    def _static_csv(self, tmp_path, config=PLAIN_CONFIG):
        path = tmp_path / "follow.csv"
        write_transactions_csv(path, generate_ethereum_like_trace(config))
        return path

    def _follow_source(self, path, idle_timeout=0.4):
        return FollowCsvTraceSource(
            path, chunk_rows=599, poll_interval=0.02, idle_timeout=idle_timeout
        )

    def test_requires_history_epochs(self, tmp_path):
        path = self._static_csv(tmp_path)
        with pytest.raises(SimulationError, match="history_epochs"):
            StreamingSimulation(
                self._follow_source(path),
                HashAllocator(),
                SimulationConfig(params=params()),
            ).run()

    def test_rejects_execute_values(self, tmp_path):
        path = self._static_csv(tmp_path)
        with pytest.raises(SimulationError, match="metrics-only"):
            StreamingSimulation(
                self._follow_source(path),
                HashAllocator(),
                SimulationConfig(
                    params=params(), history_epochs=2, execute_values=True
                ),
            ).run()

    def test_follow_over_static_file(self, tmp_path):
        path = self._static_csv(tmp_path)
        seen = []
        result = StreamingSimulation(
            self._follow_source(path),
            HashAllocator(),
            SimulationConfig(params=params(), history_epochs=2),
            on_record=seen.append,
        ).run()
        assert result.records
        assert [r.epoch for r in seen] == [r.epoch for r in result.records]

    def test_live_tail_matches_static_replay(self, tmp_path):
        """Rows appended mid-run commit identically to a static replay."""
        complete = self._static_csv(tmp_path)
        lines = complete.read_text().splitlines(keepends=True)
        half = len(lines) // 2
        growing = tmp_path / "growing.csv"
        growing.write_text("".join(lines[:half]))

        def writer():
            with growing.open("a") as handle:
                for start in range(half, len(lines), 400):
                    time.sleep(0.05)
                    handle.write("".join(lines[start : start + 400]))
                    handle.flush()

        thread = threading.Thread(target=writer)
        config = SimulationConfig(params=params(), history_epochs=2)
        thread.start()
        try:
            live = StreamingSimulation(
                self._follow_source(growing, idle_timeout=1.5),
                HashAllocator(),
                config,
            ).run()
        finally:
            thread.join()
        static = StreamingSimulation(
            self._follow_source(growing),
            HashAllocator(),
            config,
        ).run()
        assert_identical_records(live, static)


class TestSourceProtocol:
    def test_size_hints(self, tmp_path):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        assert MaterialisedTraceSource(trace).size_hint() == (
            len(trace),
            trace.n_accounts,
        )
        generated = GeneratorTraceSource(PLAIN_CONFIG)
        assert generated.size_hint() == (len(trace), trace.n_accounts)
        path = tmp_path / "hint.csv"
        write_transactions_csv(path, trace)
        # A CSV cannot know its row count without a pass: no hint.
        assert CsvTraceSource(path).size_hint() is None

    def test_chunk_iterator_source_is_one_shot(self):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        inner = MaterialisedTraceSource(trace, chunk_rows=701)
        adapter = ChunkIteratorSource(inner.chunks(), trace.n_accounts)
        assert sum(len(c) for c in adapter.chunks()) == len(trace)
        with pytest.raises(DataError, match="one-shot"):
            list(adapter.chunks())

    def test_follow_source_validates_intervals(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("hash,from_address,to_address,block_number\n")
        with pytest.raises(DataError):
            FollowCsvTraceSource(path, poll_interval=0.0)
        with pytest.raises(DataError):
            FollowCsvTraceSource(path, idle_timeout=0.0)
