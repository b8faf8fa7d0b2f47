"""O(k) store scan: the oracle for the registry's residency index.

``StateRegistry.locate`` answers through the incremental
:class:`~repro.chain.state.ResidencyIndex`; this scan walks the stores
in shard order and returns the first (lowest) shard holding the
account — what the index must report, multi-residency included.
"""

from __future__ import annotations

from typing import Optional

from repro.chain.state import StateRegistry


def locate_scan(registry: StateRegistry, account: int) -> Optional[int]:
    """Lowest shard id whose store holds ``account``, or None."""
    for store in registry.stores:
        if account in store:
            return store.shard_id
    return None
