"""Dict vs dense state-backend equivalence, and migration semantics.

The dense-array backend must be observably identical to the scalar-dict
backend: same balances, nonces, membership, state roots and totals
under any interleaving of scalar ops, columnar bulk ops and
migrations. The property suite here drives both backends through the
same randomized op streams and compares them after every step.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.state import (
    BACKEND_DENSE,
    BACKEND_DICT,
    STATE_RECORD_BYTES,
    AccountState,
    ArenaShardStateStore,
    ShardStateStore,
    StateRegistry,
)
from repro.errors import (
    ChainError,
    ConfigurationError,
    StateMigrationError,
    ValidationError,
)

N_ACCOUNTS = 24
K = 3


def _registries():
    dict_reg = StateRegistry(K, backend=BACKEND_DICT, n_accounts=N_ACCOUNTS)
    dense_reg = StateRegistry(K, backend=BACKEND_DENSE, n_accounts=N_ACCOUNTS)
    return dict_reg, dense_reg


def _assert_equivalent(dict_reg: StateRegistry, dense_reg: StateRegistry):
    for shard in range(K):
        a = dict_reg.store_of(shard)
        b = dense_reg.store_of(shard)
        assert len(a) == len(b)
        assert sorted(a.accounts()) == sorted(b.accounts())
        assert a.state_root() == b.state_root()
        assert a.serialized_bytes() == b.serialized_bytes()
        for account in a.accounts():
            assert a.get(account) == b.get(account)
    # Integer-valued balances sum exactly under both fsum and np.sum.
    assert dict_reg.total_balance() == dense_reg.total_balance()


_ACCOUNT = st.integers(0, N_ACCOUNTS - 1)
_AMOUNT = st.integers(0, 40)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("credit"), _ACCOUNT, _AMOUNT),
        st.tuples(st.just("debit"), _ACCOUNT, _AMOUNT),
        st.tuples(st.just("put"), _ACCOUNT, _AMOUNT),
        st.tuples(st.just("migrate"), _ACCOUNT, st.integers(0, K - 1)),
        st.tuples(
            st.just("credit_many"),
            st.lists(st.tuples(_ACCOUNT, _AMOUNT), min_size=1, max_size=6),
        ),
        st.tuples(
            st.just("write_back"),
            st.lists(
                st.tuples(_ACCOUNT, _AMOUNT, st.integers(0, 3)),
                min_size=1,
                max_size=6,
                unique_by=lambda t: t[0],
            ),
        ),
    ),
    max_size=40,
)


def _shard_of(account: int) -> int:
    return account % K


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_backends_are_observably_identical(ops):
    dict_reg, dense_reg = _registries()
    for op in ops:
        kind = op[0]
        if kind in ("credit", "debit", "put"):
            _, account, amount = op
            shard = _shard_of(account)
            stores = (dict_reg.store_of(shard), dense_reg.store_of(shard))
            if kind == "credit":
                results = [s.credit(account, float(amount)) for s in stores]
                assert results[0] == results[1]
            elif kind == "put":
                state = AccountState(balance=float(amount), nonce=amount % 5)
                for s in stores:
                    s.put(account, state)
            else:
                outcomes = []
                for s in stores:
                    try:
                        outcomes.append(s.debit(account, float(amount)))
                    except ChainError:
                        outcomes.append("overdraft")
                assert outcomes[0] == outcomes[1]
        elif kind == "migrate":
            _, account, to_shard = op
            outcomes = []
            for reg in (dict_reg, dense_reg):
                current = reg.locate(account)
                from_shard = current if current is not None else _shard_of(account)
                if from_shard == to_shard:
                    outcomes.append("same")
                    continue
                outcomes.append(reg.migrate(account, from_shard, to_shard))
            assert outcomes[0] == outcomes[1]
        elif kind == "credit_many":
            _, entries = op
            accounts = np.array([e[0] for e in entries], dtype=np.int64)
            amounts = np.array([e[1] for e in entries], dtype=np.float64)
            shards = accounts % K
            for shard in np.unique(shards).tolist():
                mask = shards == shard
                dict_reg.store_of(shard).credit_many(
                    accounts[mask], amounts[mask]
                )
                dense_reg.store_of(shard).credit_many(
                    accounts[mask], amounts[mask]
                )
        elif kind == "write_back":
            _, entries = op
            accounts = np.array([e[0] for e in entries], dtype=np.int64)
            balances = np.array([e[1] for e in entries], dtype=np.float64)
            bumps = np.array([e[2] for e in entries], dtype=np.int64)
            shards = accounts % K
            for shard in np.unique(shards).tolist():
                mask = shards == shard
                dict_reg.store_of(shard).write_back(
                    accounts[mask], balances[mask], bumps[mask]
                )
                dense_reg.store_of(shard).write_back(
                    accounts[mask], balances[mask], bumps[mask]
                )
        _assert_equivalent(dict_reg, dense_reg)


class TestDenseFallback:
    """Ids beyond the preallocated capacity spill into the dict fallback."""

    def test_sparse_ids_behave_like_dict_store(self):
        dense = ArenaShardStateStore(0, capacity=4)
        reference = ShardStateStore(0)
        for store in (dense, reference):
            store.credit(2, 10.0)      # in capacity
            store.credit(100, 7.0)     # beyond capacity
            store.debit(100, 3.0)
            store.credit_many(
                np.array([2, 100, 3]), np.array([1.0, 1.0, 5.0])
            )
        assert dense.state_root() == reference.state_root()
        assert dense.total_balance() == reference.total_balance()
        assert len(dense) == len(reference) == 3
        assert 100 in dense
        assert dense.get(100) == reference.get(100)

    def test_sparse_remove_and_migrate(self):
        registry = StateRegistry(2, backend=BACKEND_DENSE, n_accounts=4)
        registry.store_of(0).credit(50, 9.0)
        moved = registry.migrate(50, 0, 1)
        assert moved == STATE_RECORD_BYTES
        assert registry.locate(50) == 1
        assert registry.store_of(1).get(50).balance == 9.0

    def test_mixed_write_back_spills_correctly(self):
        dense = ArenaShardStateStore(0, capacity=4)
        dense.write_back(
            np.array([1, 9]), np.array([5.0, 6.0]), np.array([1, 2])
        )
        assert dense.get(1) == AccountState(balance=5.0, nonce=1)
        assert dense.get(9) == AccountState(balance=6.0, nonce=2)


class TestMigrationSemantics:
    """Typed errors instead of silent drops / leaked KeyErrors."""

    @pytest.mark.parametrize("backend", [BACKEND_DICT, BACKEND_DENSE])
    def test_wrong_source_shard_raises_typed_error(self, backend):
        registry = StateRegistry(3, backend=backend, n_accounts=8)
        registry.store_of(2).credit(5, 4.0)
        with pytest.raises(StateMigrationError, match="resident on shard 2"):
            registry.migrate(5, 0, 1)
        # Nothing moved, nothing lost.
        assert registry.locate(5) == 2
        assert registry.total_balance() == 4.0

    @pytest.mark.parametrize("backend", [BACKEND_DICT, BACKEND_DENSE])
    def test_unknown_account_migration_is_free_noop(self, backend):
        registry = StateRegistry(3, backend=backend, n_accounts=8)
        assert registry.migrate(5, 0, 1) == 0

    @pytest.mark.parametrize("backend", [BACKEND_DICT, BACKEND_DENSE])
    def test_batch_with_duplicate_accounts_is_rejected_untouched(
        self, backend
    ):
        """A repeated id must fail before any state moves: taking the
        same account twice double-frees its slot (dense) or pops it
        once and then raises mid-batch (dict), losing its balance."""
        registry = StateRegistry(2, backend=backend, n_accounts=8)
        registry.store_of(0).credit(1, 5.0)
        registry.store_of(0).credit(2, 7.0)
        roots = [s.state_root() for s in registry.stores]
        lengths = [len(s) for s in registry.stores]
        with pytest.raises(ValidationError, match="account 1 appears more"):
            registry.migrate_batch(
                np.array([1, 1], dtype=np.int64),
                np.array([1, 1], dtype=np.int64),
            )
        assert [s.state_root() for s in registry.stores] == roots
        assert [len(s) for s in registry.stores] == lengths
        assert registry.total_balance() == 12.0
        assert registry.locate(1) == 0
        # The store is still sound: two fresh accounts get two slots.
        registry.store_of(0).credit(3, 1.0)
        registry.store_of(0).credit(4, 1.0)
        assert registry.total_balance() == 14.0
        assert registry.store_of(0).get(3).balance == 1.0

    def test_remove_raises_chain_error_not_key_error(self):
        for store in (ShardStateStore(0), ArenaShardStateStore(0, capacity=4)):
            with pytest.raises(ChainError):
                store.remove(1)
            with pytest.raises(ChainError):
                store.remove(99)


class TestExactTotals:
    """fsum/np.sum accumulation keeps conservation checks tight."""

    def test_dict_total_is_exactly_rounded(self):
        store = ShardStateStore(0)
        store.credit(0, 1e16)
        for account in range(1, 11):
            store.credit(account, 1.0)
        # Naive left-to-right float accumulation loses every 1.0 against
        # 1e16; fsum keeps the exactly-rounded total.
        assert store.total_balance() == 1e16 + 10.0

    def test_registry_total_is_exactly_rounded_across_shards(self):
        registry = StateRegistry(4, backend=BACKEND_DICT)
        registry.store_of(0).credit(0, 1e16)
        for shard in range(1, 4):
            registry.store_of(shard).credit(shard, 1.0)
        assert registry.total_balance() == 1e16 + 3.0

    def test_dense_total_uses_float64_pairwise_sum(self):
        dense = ArenaShardStateStore(0, capacity=1000)
        dense.credit_many(
            np.arange(1000), np.full(1000, 0.1, dtype=np.float64)
        )
        assert dense.total_balance() == pytest.approx(
            math.fsum([0.1] * 1000), abs=1e-9
        )


class TestRegistryConstruction:
    def test_rejects_unknown_backend(self):
        # "dense-ref" named the retired first-fit store.
        for backend in ("sqlite", "dense-ref"):
            with pytest.raises(ConfigurationError, match="unknown state backend"):
                StateRegistry(2, backend=backend)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValidationError):
            StateRegistry(2, backend=BACKEND_DENSE, n_accounts=-1)

    def test_backend_recorded(self):
        assert StateRegistry(2).backend == BACKEND_DICT
        dense = StateRegistry(2, backend=BACKEND_DENSE, n_accounts=10)
        assert dense.backend == BACKEND_DENSE
        assert all(s.capacity == 10 for s in dense.stores)
