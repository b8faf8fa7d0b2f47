"""Accounts and the address registry.

Externally, accounts are Ethereum-style hex addresses. Internally, every
hot path (allocation, metrics, graph building) works on dense integer
account ids. :class:`AccountRegistry` provides the bidirectional mapping
and guarantees ids are assigned densely in registration order, which lets
the rest of the library index numpy arrays by account id.
"""

from __future__ import annotations

import hashlib
import re
from itertools import filterfalse
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import UnknownAccountError, ValidationError

Address = str

_ADDRESS_BYTES = 20

#: A canonical address: what :func:`_normalize` returns.
_ADDRESS = f"0x[0-9a-f]{{{_ADDRESS_BYTES * 2}}}"
_ADDRESS_CHARS = 2 + _ADDRESS_BYTES * 2
_ADDRESS_RE = re.compile(_ADDRESS)
#: Comma-joined canonical addresses, so a whole batch validates in one
#: match.
_ADDRESS_BATCH_RE = re.compile(f"{_ADDRESS}(?:,{_ADDRESS})*")


def _normalize(address: str) -> str:
    if not isinstance(address, str):
        raise ValidationError(f"address must be str, got {type(address).__name__}")
    addr = address.lower()
    if not addr.startswith("0x"):
        addr = "0x" + addr
    if _ADDRESS_RE.fullmatch(addr) is None:
        if len(addr) != _ADDRESS_CHARS:
            raise ValidationError(
                f"address must be {_ADDRESS_BYTES} bytes "
                f"({_ADDRESS_BYTES * 2} hex chars), got {address!r}"
            )
        raise ValidationError(f"address is not valid hex: {address!r}")
    return addr


def address_from_id(account_id: int) -> Address:
    """Deterministically derive a synthetic 20-byte address for an id.

    Used by the trace generator so synthetic accounts have realistic
    addresses while remaining reproducible.
    """
    if account_id < 0:
        raise ValidationError(f"account_id must be >= 0, got {account_id}")
    digest = hashlib.sha256(f"repro-account-{account_id}".encode()).digest()
    return "0x" + digest[:_ADDRESS_BYTES].hex()


def random_address(rng: np.random.Generator) -> Address:
    """Sample a uniformly random 20-byte address."""
    raw = rng.integers(0, 256, size=_ADDRESS_BYTES, dtype=np.uint8)
    return "0x" + bytes(raw.tolist()).hex()


class AccountRegistry:
    """Bidirectional address <-> dense integer id mapping.

    Ids are assigned in first-registration order starting at 0, so a
    registry with ``n`` accounts always covers exactly ``range(n)``.
    """

    def __init__(self, addresses: Optional[Iterable[Address]] = None) -> None:
        self._id_of: Dict[Address, int] = {}
        self._address_of: List[Address] = []
        if addresses is not None:
            for address in addresses:
                self.register(address)

    def __len__(self) -> int:
        return len(self._address_of)

    def __contains__(self, address: Address) -> bool:
        try:
            return _normalize(address) in self._id_of
        except ValidationError:
            return False

    def __iter__(self) -> Iterator[Address]:
        return iter(self._address_of)

    def register(self, address: Address) -> int:
        """Register ``address`` (idempotent) and return its id."""
        addr = _normalize(address)
        existing = self._id_of.get(addr)
        if existing is not None:
            return existing
        account_id = len(self._address_of)
        self._id_of[addr] = account_id
        self._address_of.append(addr)
        return account_id

    def intern_canonical(self, addresses: Sequence[Address]) -> np.ndarray:
        """Ids of canonical addresses, registering the unseen ones in bulk.

        ``addresses`` must already be in the form :meth:`register`
        stores (lowercase ``0x`` plus 40 hex digits). Unseen ones are
        validated with one match over the batch and registered in
        first-seen order, so ids equal those of calling
        :meth:`register` on each address in turn. If any unseen address
        is not canonical, nothing is registered and
        :class:`ValidationError` is raised.
        """
        id_of = self._id_of
        fresh = list(filterfalse(id_of.__contains__, dict.fromkeys(addresses)))
        if fresh:
            joined = ",".join(fresh)
            # The length check stops one entry passing as two joined ones.
            if (
                len(joined) != len(fresh) * (_ADDRESS_CHARS + 1) - 1
                or _ADDRESS_BATCH_RE.fullmatch(joined) is None
            ):
                raise ValidationError("batch holds a non-canonical address")
            start = len(self._address_of)
            id_of.update(zip(fresh, range(start, start + len(fresh))))
            self._address_of.extend(fresh)
        return np.fromiter(
            map(id_of.__getitem__, addresses), dtype=np.int64, count=len(addresses)
        )

    def id_of(self, address: Address) -> int:
        """Return the id of ``address``; raise if unregistered."""
        addr = _normalize(address)
        account_id = self._id_of.get(addr)
        if account_id is None:
            raise UnknownAccountError(address)
        return account_id

    def address_of(self, account_id: int) -> Address:
        """Return the address registered under ``account_id``."""
        if not 0 <= account_id < len(self._address_of):
            raise UnknownAccountError(account_id)
        return self._address_of[account_id]

    def ensure_size(self, n_accounts: int) -> None:
        """Register synthetic addresses until at least ``n_accounts`` exist."""
        while len(self._address_of) < n_accounts:
            self.register(address_from_id(len(self._address_of)))

    @classmethod
    def synthetic(cls, n_accounts: int) -> "AccountRegistry":
        """Build a registry of ``n_accounts`` deterministic addresses."""
        registry = cls()
        registry.ensure_size(n_accounts)
        return registry
