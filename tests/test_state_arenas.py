"""Arena-allocator equivalence, spill re-homing, and churn bounds.

The :class:`ArenaShardStateStore` (backend ``"dense"``) must be
observably identical to the scalar dict backend under any interleaving
of execution ops, scalar/batched migration, settlement write-backs and
compaction — spill and multi-residency included, at small k and at the
multi-word residency scale (k > 64). On top of the equivalence
property, this suite pins the compact-time spill re-homing behaviour
and an adversarial-churn memory bound on the compacted arenas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.residency import locate_scan

from repro.chain.state import (
    ARENA_EXTENT_ROWS,
    BACKEND_DENSE,
    BACKEND_DICT,
    AccountState,
    StateRegistry,
)
from repro.errors import ChainError

N_ACCOUNTS = 24
K = 3

ALL_BACKENDS = (BACKEND_DICT, BACKEND_DENSE)


def _registries():
    return tuple(
        StateRegistry(K, backend=b, n_accounts=N_ACCOUNTS)
        for b in ALL_BACKENDS
    )


def _assert_equivalent(registries):
    reference = registries[0]
    for other in registries[1:]:
        for shard in range(reference.k):
            a = reference.store_of(shard)
            b = other.store_of(shard)
            assert len(a) == len(b)
            assert sorted(a.accounts()) == sorted(b.accounts())
            assert a.state_root() == b.state_root()
            assert a.serialized_bytes() == b.serialized_bytes()
            for account in a.accounts():
                assert a.get(account) == b.get(account)
        assert reference.total_balance() == other.total_balance()


def _shard_of(account: int) -> int:
    return account % K


_ACCOUNT = st.integers(0, N_ACCOUNTS - 1)
_AMOUNT = st.integers(0, 40)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("credit"), _ACCOUNT, _AMOUNT),
        st.tuples(st.just("debit"), _ACCOUNT, _AMOUNT),
        st.tuples(st.just("put"), _ACCOUNT, _AMOUNT),
        st.tuples(st.just("migrate"), _ACCOUNT, st.integers(0, K - 1)),
        st.tuples(
            st.just("migrate_batch"),
            st.lists(
                st.tuples(_ACCOUNT, st.integers(0, K - 1)),
                min_size=1,
                max_size=8,
                unique_by=lambda t: t[0],
            ),
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
        st.tuples(st.just("compact")),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_arena_reference_and_dict_are_observably_identical(ops):
    """The core property: randomized execute / migrate / settle /
    compact interleavings leave the arena store and the dict oracle
    with identical observable state after every step."""
    registries = _registries()
    for op in ops:
        kind = op[0]
        if kind in ("credit", "debit", "put"):
            _, account, amount = op
            shard = _shard_of(account)
            stores = [reg.store_of(shard) for reg in registries]
            if kind == "credit":
                results = [s.credit(account, float(amount)) for s in stores]
                assert len(set(results)) == 1
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
                assert len(set(outcomes)) == 1
        elif kind == "migrate":
            _, account, to_shard = op
            outcomes = []
            for reg in registries:
                current = reg.locate(account)
                from_shard = (
                    current if current is not None else _shard_of(account)
                )
                if from_shard == to_shard:
                    outcomes.append("same")
                    continue
                outcomes.append(reg.migrate(account, from_shard, to_shard))
            assert len(set(outcomes)) == 1
        elif kind == "migrate_batch":
            _, entries = op
            accounts = np.array([e[0] for e in entries], dtype=np.int64)
            targets = np.array([e[1] for e in entries], dtype=np.int64)
            moved = {reg.migrate_batch(accounts, targets) for reg in registries}
            assert len(moved) == 1
        elif kind == "write_back":
            _, entries = op
            accounts = np.array([e[0] for e in entries], dtype=np.int64)
            balances = np.array([e[1] for e in entries], dtype=np.float64)
            bumps = np.array([e[2] for e in entries], dtype=np.int64)
            shards = accounts % K
            for shard in np.unique(shards).tolist():
                mask = shards == shard
                for reg in registries:
                    reg.store_of(shard).write_back(
                        accounts[mask], balances[mask], bumps[mask]
                    )
        elif kind == "compact":
            for reg in registries:
                reg.compact_stores(min_slack=0.0)
        _assert_equivalent(registries)


class TestLargeKMultiWordResidency:
    """k > 64 drives the residency index into multi-word bitmasks; the
    arena allocator must stay root-identical to the dict oracle
    through batched churn at that scale."""

    K_LARGE = 80
    N = 640

    def _registries(self):
        return tuple(
            StateRegistry(self.K_LARGE, backend=b, n_accounts=self.N)
            for b in ALL_BACKENDS
        )

    def test_batched_churn_is_root_identical_at_k80(self):
        registries = self._registries()
        rng = np.random.default_rng(17)
        home = rng.integers(0, self.K_LARGE, size=self.N)
        ids = np.arange(self.N, dtype=np.int64)
        for reg in registries:
            for shard in range(self.K_LARGE):
                members = ids[home == shard]
                if len(members):
                    reg.store_of(shard).put_many(
                        members,
                        np.full(len(members), 3.0),
                        np.zeros(len(members), dtype=np.int64),
                    )
        for round_index in range(6):
            churn = rng.choice(self.N, size=self.N // 3, replace=False)
            targets = rng.integers(
                0, self.K_LARGE, size=len(churn), dtype=np.int64
            )
            moved = {
                reg.migrate_batch(churn.astype(np.int64), targets)
                for reg in registries
            }
            assert len(moved) == 1
            if round_index % 2:
                for reg in registries:
                    reg.compact_stores(min_slack=0.25)
            roots = [
                [s.state_root() for s in reg.stores] for reg in registries
            ]
            assert roots[0] == roots[1]
            locates = [reg.locate_many(ids).tolist() for reg in registries]
            assert locates[0] == locates[1]


class TestBeyondCapacitySpill:
    """Ids past the preallocated capacity live in the spill dict; the
    arena backend must treat them exactly like the dict oracle does,
    through compaction included."""

    def test_spilled_ids_stay_equivalent_through_compact(self):
        capacity = 8
        registries = tuple(
            StateRegistry(2, backend=b, n_accounts=capacity)
            for b in ALL_BACKENDS
        )
        for reg in registries:
            s0, s1 = reg.store_of(0), reg.store_of(1)
            for account in range(capacity):  # fill the dense columns
                s0.credit(account, 2.0)
            for account in range(capacity, capacity + 5):  # spill
                s0.put(account, AccountState(balance=7.0, nonce=1))
            s0.debit(capacity + 2, 3.0)
            reg.migrate(capacity + 3, 0, 1)
            s1.credit(capacity + 7, 9.0)
            reg.compact_stores(min_slack=0.0)
        reference = registries[0]
        for other in registries[1:]:
            for shard in range(2):
                a, b = reference.store_of(shard), other.store_of(shard)
                assert sorted(a.accounts()) == sorted(b.accounts())
                assert a.state_root() == b.state_root()
            assert reference.total_balance() == other.total_balance()

    def test_beyond_capacity_ids_never_claim_slots(self):
        registry = StateRegistry(2, backend=BACKEND_DENSE, n_accounts=4)
        store = registry.store_of(0)
        store.put(11, AccountState(balance=1.0))
        store.compact()
        stats = store.arena_stats()
        assert stats["capacity_slots"] == 0  # no column was ever allocated
        assert store.get(11) == AccountState(balance=1.0)


class TestSpillRehoming:
    """Satellite pin: ``compact()`` re-homes spill-dict accounts into
    fresh slots when capacity allows, instead of leaving them spilled
    indefinitely — with observable state (roots) untouched."""

    @pytest.mark.parametrize("backend", (BACKEND_DENSE,))
    def test_compact_rehomes_freed_spill_entries(self, backend):
        registry = StateRegistry(2, backend=backend, n_accounts=8)
        s0, s1 = registry.store_of(0), registry.store_of(1)
        s0.credit(3, 10.0)  # home resident of shard 0
        # Multi-residency: shard 1 must hold 3 too (relay settlement
        # shape) — in capacity but homed elsewhere, so it spills.
        s1.put(3, AccountState(balance=5.0, nonce=1))
        spilled = len(s1) - int(s1.arena_stats()["live_slots"])
        assert spilled == 1
        s0.remove(3)  # the home residency ends; the spill copy stays
        root_before = s1.state_root()
        s1.compact()
        assert len(s1) - int(s1.arena_stats()["live_slots"]) == 0
        assert s1.state_root() == root_before
        assert s1.get(3) == AccountState(balance=5.0, nonce=1)

    @pytest.mark.parametrize("backend", (BACKEND_DENSE,))
    def test_spill_heavy_churn_shrinks_spill_and_keeps_roots(self, backend):
        n = 32
        registry = StateRegistry(2, backend=backend, n_accounts=n)
        s0, s1 = registry.store_of(0), registry.store_of(1)
        for account in range(n):
            s0.credit(account, 1.0)
        # Spill half the universe into shard 1 while still homed at 0.
        for account in range(0, n, 2):
            s1.put(account, AccountState(balance=2.0, nonce=1))
        # End the home residencies, stranding the spill entries.
        for account in range(0, n, 2):
            s0.remove(account)
        spilled_before = len(s1) - int(s1.arena_stats()["live_slots"])
        assert spilled_before == n // 2
        roots_before = [s.state_root() for s in registry.stores]
        registry.compact_stores(min_slack=0.0)
        assert len(s1) - int(s1.arena_stats()["live_slots"]) == 0
        assert [s.state_root() for s in registry.stores] == roots_before
        assert registry.total_balance() == (n // 2) * 1.0 + (n // 2) * 2.0

    def test_still_homed_elsewhere_stays_spilled(self):
        registry = StateRegistry(2, backend=BACKEND_DENSE, n_accounts=8)
        s0, s1 = registry.store_of(0), registry.store_of(1)
        s0.credit(3, 10.0)
        s1.put(3, AccountState(balance=5.0))
        s1.compact()  # 3 is still homed on shard 0: no legal slot here
        assert len(s1) - int(s1.arena_stats()["live_slots"]) == 1
        assert s1.get(3) == AccountState(balance=5.0)


class TestAdversarialChurnBound:
    """Scatter-churn the universe across shards, compact, and the
    arena columns must land back inside a churn-independent byte
    bound."""

    def test_adversarial_churn_bounds_arena_nbytes(self):
        n_accounts = 5_000
        k = 4
        registry = StateRegistry(k, backend=BACKEND_DENSE, n_accounts=n_accounts)
        rng = np.random.default_rng(0)
        home = rng.integers(0, k, size=n_accounts)
        ids = np.arange(n_accounts, dtype=np.int64)
        for shard in range(k):
            members = ids[home == shard]
            registry.store_of(shard).put_many(
                members,
                np.full(len(members), 1.0),
                np.zeros(len(members), dtype=np.int64),
            )
        # Adversarial scatter churn: random subsets hop to a rotating
        # hot shard, leaving holes sprayed across every source arena.
        for epoch in range(8):
            churn = rng.choice(n_accounts, size=n_accounts // 3, replace=False)
            targets = np.full(len(churn), epoch % k, dtype=np.int64)
            registry.migrate_batch(churn.astype(np.int64), targets)
            registry.compact_stores(min_slack=0.25)
        # Funnel everything onto one shard and compact: the drained
        # shards must truncate to zero capacity and the hot shard's
        # arenas consolidate.
        registry.migrate_batch(ids, np.full(n_accounts, 1, dtype=np.int64))
        roots_before = [s.state_root() for s in registry.stores]
        before = registry.state_memory_nbytes()
        reclaimed = registry.compact_stores(min_slack=0.25)
        assert reclaimed > 0
        after = registry.state_memory_nbytes()
        assert after == before - reclaimed
        for shard in (0, 2, 3):
            assert registry.store_of(shard).arena_stats()["capacity_slots"] == 0
        # Bound: compacted arenas are >= 50% occupied (2x headroom on
        # the 24 B/slot base class) plus at most two partially-blocked
        # extents, plus the shared directory and index — independent of
        # the churn history.
        directory_and_index = n_accounts * (4 + 8) + n_accounts * 8
        ceiling = (2 * n_accounts + 2 * ARENA_EXTENT_ROWS) * 24
        assert after <= ceiling + directory_and_index
        # Observable state is untouched.
        assert [s.state_root() for s in registry.stores] == roots_before
        assert registry.total_balance() == n_accounts * 1.0
        assert registry.locate_many(ids).tolist() == [
            locate_scan(registry, int(a)) for a in ids
        ]

    def test_fragmentation_telemetry_reflects_churn(self):
        registry = StateRegistry(2, backend=BACKEND_DENSE, n_accounts=4096)
        store = registry.store_of(0)
        ids = np.arange(4096, dtype=np.int64)
        store.put_many(
            ids, np.ones(len(ids)), np.zeros(len(ids), dtype=np.int64)
        )
        full = registry.fragmentation_stats()
        assert full["occupancy"] == 1.0
        assert full["fragmentation"] == 0.0
        assert full["arena_count"] == 4096 // ARENA_EXTENT_ROWS
        registry.migrate_batch(
            ids[::2], np.ones(len(ids[::2]), dtype=np.int64)
        )
        churned = registry.fragmentation_stats()
        assert 0.0 < churned["fragmentation"] < 1.0
        assert churned["live_slots"] == 4096
        registry.compact_stores(min_slack=0.0)
        compacted = registry.fragmentation_stats()
        assert compacted["fragmentation"] <= churned["fragmentation"]
        assert registry.compaction_count >= 1
        assert registry.compact_moved_bytes_total >= 0
