"""CSV ETL compatible with the ethereum-etl ``transactions`` schema.

The paper collects its dataset with Ethereum ETL. This module reads and
writes the subset of that CSV schema the evaluation needs, so a real
extract can be dropped into the same pipeline as the synthetic traces.
The ``value`` column is carried faithfully into the batch's ``values``
column (a replayed extract settles the volume it recorded, not a
synthetic per-transfer default); an optional ``fee`` column — our
documented extension for traces generated with a fee model — rides
along the same way.

Both readers — the eager :func:`read_transactions_csv` and the chunked,
bounded-memory :class:`repro.data.source.CsvTraceSource` — decode
through :class:`_BlockDecoder`. It reads the file in blocks of at most
``_BLOCK_LINES`` raw lines, lowercases and splits each block once, and
parses whole columns at a time. A block it cannot prove well-formed is
re-decoded row by row through :class:`_RowDecoder`, which defines the
accepted syntax, so both paths yield the same rows and account ids.

Malformed rows raise :class:`~repro.errors.MalformedRowError` carrying
the file name and 1-based line number, so one bad row in a huge extract
is findable without re-running the decode.
"""

from __future__ import annotations

import csv
import math
import sys
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.chain.account import AccountRegistry, address_from_id
from repro.chain.transaction import TransactionBatch
from repro.data.trace import Trace
from repro.errors import DataError, MalformedRowError, ValidationError

#: Columns written/accepted, a subset of ethereum-etl's transactions.csv.
ETL_COLUMNS = ("hash", "block_number", "from_address", "to_address", "value")

_MAX_BLOCK = np.iinfo(np.int64).max

#: Optional per-transfer fee column (our extension; absent from real
#: ethereum-etl extracts, written only for traces that carry fees).
FEE_COLUMN = "fee"


class _RowDecoder:
    """Shared per-row decode for the eager reader and the chunked source.

    Resolves the header once, then turns each raw CSV row into an
    ``(sender, receiver, block, value, fee)`` tuple — or ``None`` for
    rows the paper's account-graph construction skips (contract
    creations, self-transfers). Bad cells raise
    :class:`MalformedRowError` with the file and 1-based line number.
    """

    def __init__(
        self,
        path: Path,
        fieldnames: Optional[List[str]],
        registry: AccountRegistry,
    ) -> None:
        if fieldnames is None:
            raise DataError(f"{path} is empty")
        missing = {"block_number", "from_address", "to_address"} - set(fieldnames)
        if missing:
            raise DataError(f"{path} is missing columns: {sorted(missing)}")
        self.path = path
        self.registry = registry
        self.n_columns = len(fieldnames)
        self._block_idx = fieldnames.index("block_number")
        self._from_idx = fieldnames.index("from_address")
        self._to_idx = fieldnames.index("to_address")
        self._value_idx = (
            fieldnames.index("value") if "value" in fieldnames else None
        )
        self._fee_idx = (
            fieldnames.index(FEE_COLUMN) if FEE_COLUMN in fieldnames else None
        )
        self._width = max(
            idx
            for idx in (
                self._block_idx,
                self._from_idx,
                self._to_idx,
                self._value_idx,
                self._fee_idx,
            )
            if idx is not None
        ) + 1

    @property
    def has_values(self) -> bool:
        return self._value_idx is not None

    @property
    def has_fees(self) -> bool:
        return self._fee_idx is not None

    # Column positions, read by _BlockDecoder so the block and row paths
    # resolve duplicated headers to the same first occurrence.

    @property
    def block_index(self) -> int:
        return self._block_idx

    @property
    def from_index(self) -> int:
        return self._from_idx

    @property
    def to_index(self) -> int:
        return self._to_idx

    @property
    def value_index(self) -> Optional[int]:
        return self._value_idx

    @property
    def fee_index(self) -> Optional[int]:
        return self._fee_idx

    @property
    def width(self) -> int:
        return self._width

    def decode(
        self, line: int, row: List[str]
    ) -> Optional[Tuple[int, int, int, float, float]]:
        if not row:
            return None  # blank line (csv.DictReader skipped these too)
        if len(row) < self._width:
            raise MalformedRowError(
                self.path, line, f"expected >= {self._width} columns, got {len(row)}"
            )
        from_address = row[self._from_idx].strip()
        to_address = row[self._to_idx].strip()
        if not from_address or not to_address:
            return None  # contract creation / malformed endpoint
        raw_block = row[self._block_idx]
        try:
            block = int(raw_block)
        except (TypeError, ValueError):
            raise MalformedRowError(
                self.path, line, f"bad block_number {raw_block!r}"
            ) from None
        if block < 0:
            raise MalformedRowError(
                self.path, line, f"negative block_number {block}"
            )
        if block > _MAX_BLOCK:
            raise MalformedRowError(
                self.path, line, f"block_number {block} exceeds int64"
            )
        value = 0.0
        if self._value_idx is not None:
            raw_value = row[self._value_idx].strip()
            if raw_value:
                try:
                    value = float(raw_value)
                except ValueError:
                    raise MalformedRowError(
                        self.path, line, f"bad value {raw_value!r}"
                    ) from None
                if value < 0 or not math.isfinite(value):
                    raise MalformedRowError(
                        self.path, line, f"bad value {raw_value!r}"
                    )
        fee = 0.0
        if self._fee_idx is not None:
            raw_fee = row[self._fee_idx].strip()
            if raw_fee:
                try:
                    fee = float(raw_fee)
                except ValueError:
                    raise MalformedRowError(
                        self.path, line, f"bad fee {raw_fee!r}"
                    ) from None
                if fee < 0 or not math.isfinite(fee):
                    raise MalformedRowError(self.path, line, f"bad fee {raw_fee!r}")
        try:
            sender = self.registry.register(from_address)
            receiver = self.registry.register(to_address)
        except ValidationError as exc:
            raise MalformedRowError(self.path, line, str(exc)) from exc
        if sender == receiver:
            return None  # self-transfers carry no allocation signal
        return sender, receiver, block, value, fee


#: Raw lines per decoded block. A block's transient text and split
#: fields are a few times its size on disk (~170 bytes a row), so this
#: bounds the decoder's working memory; larger blocks are no faster.
_BLOCK_LINES = 4096


class _ChunkBuffer:
    """Decoded columns awaiting emission as one ``chunk_rows`` chunk.

    The value column activates lazily: a chunk carries ``values`` once
    a nonzero value was decoded in it or any earlier chunk, so an
    all-zero column never materialises (see :class:`CsvTraceSource`).
    """

    def __init__(self, chunk_rows: int, has_values: bool, has_fees: bool) -> None:
        self.chunk_rows = chunk_rows
        self.has_values = has_values
        self.has_fees = has_fees
        self.rows = 0
        self._pieces: List[Tuple[np.ndarray, ...]] = []
        self._values_active = False

    @property
    def room(self) -> int:
        return self.chunk_rows - self.rows

    def add(self, senders, receivers, blocks, values, fees) -> None:
        if len(senders):
            self._pieces.append((senders, receivers, blocks, values, fees))
            self.rows += len(senders)

    def emit(self) -> TransactionBatch:
        senders, receivers, blocks, values, fees = (
            np.concatenate(column) if column[0] is not None else None
            for column in zip(*self._pieces)
        )
        self._pieces = []
        self.rows = 0
        if values is not None and not self._values_active:
            self._values_active = bool(values.any())
        return TransactionBatch(
            senders,
            receivers,
            blocks,
            values if self._values_active else None,
            fees,
        )


def _reraise(exc: BaseException) -> Iterator[str]:
    raise exc
    yield  # pragma: no cover - makes this a generator


class _BlockDecoder:
    """Block-columnar CSV decode into chunks of exactly ``chunk_rows`` rows.

    The fast path reads at most ``_BLOCK_LINES`` raw lines (never more
    than the current chunk has room for, so chunks break at exact row
    counts and at most ``chunk_rows`` decoded rows are ever buffered),
    joins and lowercases them once, splits the block once on commas
    and newlines, and takes columns by stride. Blocks, values and fees
    parse with ``int``/``float`` over whole columns — the functions the
    row path applies cell by cell — and unseen addresses register in
    bulk through :meth:`AccountRegistry.intern_canonical`.

    Fallback rule: a block that fails any precondition or check (a
    field count other than the header's, a blank line, a lone ``\r``,
    an empty or non-canonical address, a bad, negative or non-finite
    cell, rows out of block order) is re-decoded by
    :class:`_RowDecoder`, which raises the typed error at its line or
    accepts the block. Nothing is registered before a block passes, and
    registration is idempotent, so ids match the row path either way.
    A block containing ``"`` hands the rest of the file to the row path
    (``csv.reader`` over the block's lines chained with the handle), so
    a quoted field spanning a block boundary decodes exactly as a
    whole-file ``csv.reader`` would; so does a block cut short by a
    ``UnicodeError``, which the row path then re-raises in place.
    ``fallback_blocks`` counts the blocks decoded row by row.

    ``check_order`` enforces the streamed block-order contract; the
    eager reader turns it off and sorts instead.
    """

    def __init__(
        self,
        path: Path,
        registry: AccountRegistry,
        chunk_rows: int,
        check_order: bool,
    ) -> None:
        self.path = path
        self.registry = registry
        self.chunk_rows = chunk_rows
        self.check_order = check_order
        self.fallback_blocks = 0
        #: Set once the header is read; carries the column layout.
        self.row_decoder: Optional[_RowDecoder] = None
        self._last_block = -1

    def chunks(self) -> Iterator[TransactionBatch]:
        with self.path.open(newline="") as handle:
            fieldnames = next(csv.reader(handle), None)
            self.row_decoder = _RowDecoder(self.path, fieldnames, self.registry)
            buffer = _ChunkBuffer(
                self.chunk_rows,
                self.row_decoder.has_values,
                self.row_decoder.has_fees,
            )
            line = 2
            while True:
                lines: List[str] = []
                rest: Optional[Iterable[str]] = None
                try:
                    # extend() keeps the lines read before a failure.
                    lines.extend(islice(handle, min(_BLOCK_LINES, buffer.room)))
                except UnicodeError as exc:
                    rest = _reraise(exc)
                if not lines and rest is None:
                    break
                text = "".join(lines).lower()
                if rest is None and '"' in text:
                    rest = handle
                columns = None if rest is not None else self._columns(lines, text)
                if columns is None:
                    self.fallback_blocks += 1
                    records = csv.reader(lines if rest is None else chain(lines, rest))
                    yield from self._decode_rows(records, line, buffer)
                    if rest is not None:
                        break
                else:
                    buffer.add(*columns)
                    if not buffer.room:
                        yield buffer.emit()
                line += len(lines)
            if buffer.rows:
                yield buffer.emit()

    def _columns(self, lines: List[str], text: str) -> Optional[Tuple]:
        """Decode a block (``text``: its lines joined and lowercased)
        column-wise; ``None`` sends it to the row path."""
        layout = self.row_decoder
        n_columns = layout.n_columns
        if set(map(str.count, lines, repeat(","))) != {n_columns - 1}:
            return None  # short/extra fields or a blank line
        if "\x00" in text:
            return None  # csv.reader rejects NUL before Python 3.11
        n = len(lines)
        # A CRLF line leaves its "\r" on the row's last field: int() and
        # float() ignore it, and an address carrying it fails the
        # canonical check. A lone CR ends a line without a "\n", which
        # merges two fields and shows up in the count.
        fields = text.replace("\n", ",").split(",")
        if text.endswith("\n"):
            fields.pop()  # the empty field after the final newline
        if len(fields) != n * n_columns:
            return None
        try:
            blocks = np.fromiter(
                map(int, fields[layout.block_index :: n_columns]), np.int64, n
            )
            values = fees = None
            if layout.value_index is not None:
                values = np.fromiter(
                    map(float, fields[layout.value_index :: n_columns]), np.float64, n
                )
            if layout.fee_index is not None:
                fees = np.fromiter(
                    map(float, fields[layout.fee_index :: n_columns]), np.float64, n
                )
        except (ValueError, OverflowError):
            return None
        if blocks.min() < 0:
            return None
        for amounts in (values, fees):
            # NaN fails both comparisons.
            if amounts is not None and not (
                (amounts >= 0) & (amounts < np.inf)
            ).all():
                return None
        if self.check_order and (
            blocks[0] < self._last_block or (blocks[1:] < blocks[:-1]).any()
        ):
            return None  # the row path exempts self-transfers; let it judge
        pairs: List[str] = [""] * (2 * n)
        pairs[::2] = fields[layout.from_index :: n_columns]
        pairs[1::2] = fields[layout.to_index :: n_columns]
        try:
            # Also refuses empty endpoints, which the row path skips.
            ids = self.registry.intern_canonical(pairs)
        except ValidationError:
            return None
        senders = ids[::2]
        receivers = ids[1::2]
        keep = senders != receivers
        if not keep.all():
            senders = senders[keep]
            receivers = receivers[keep]
            blocks = blocks[keep]
            values = None if values is None else values[keep]
            fees = None if fees is None else fees[keep]
        if len(blocks):
            self._last_block = int(blocks[-1])
        return senders, receivers, blocks, values, fees

    def _decode_rows(
        self, records: Iterable[List[str]], line: int, buffer: _ChunkBuffer
    ) -> Iterator[TransactionBatch]:
        """Row-by-row decode of ``records`` (numbered from ``line``)."""
        decode = self.row_decoder.decode
        has_values = buffer.has_values
        has_fees = buffer.has_fees
        senders: List[int] = []
        receivers: List[int] = []
        blocks: List[int] = []
        values: List[float] = []
        fees: List[float] = []

        def flush() -> None:
            buffer.add(
                np.asarray(senders, dtype=np.int64),
                np.asarray(receivers, dtype=np.int64),
                np.asarray(blocks, dtype=np.int64),
                np.asarray(values, dtype=np.float64) if has_values else None,
                np.asarray(fees, dtype=np.float64) if has_fees else None,
            )
            for column in (senders, receivers, blocks, values, fees):
                column.clear()

        room = buffer.room
        for line, row in enumerate(records, start=line):
            decoded = decode(line, row)
            if decoded is None:
                continue
            sender, receiver, block, value, fee = decoded
            if self.check_order:
                if block < self._last_block:
                    raise MalformedRowError(
                        self.path,
                        line,
                        f"block {block} out of order after {self._last_block} "
                        "(streamed decode requires block-ordered rows; "
                        "use read_transactions_csv for unsorted files)",
                    )
                self._last_block = block
            senders.append(sender)
            receivers.append(receiver)
            blocks.append(block)
            values.append(value)
            fees.append(fee)
            if len(senders) == room:
                flush()
                yield buffer.emit()
                room = buffer.room
        flush()


def write_transactions_csv(
    path: Union[str, Path],
    trace: Trace,
    registry: Optional[AccountRegistry] = None,
) -> int:
    """Write ``trace`` as an ethereum-etl style CSV; return rows written.

    When no registry is supplied, deterministic synthetic addresses are
    derived from the integer ids. The ``value`` column carries the
    batch's ``values`` (0 for metric-only traces); a ``fee`` column is
    appended only when the trace carries fees, so fee-free files keep
    the exact ethereum-etl column subset.
    """
    path = Path(path)
    batch = trace.batch

    def to_address(account_id: int) -> str:
        if registry is not None:
            return registry.address_of(account_id)
        return address_from_id(account_id)

    values = batch.values
    fees = batch.fees
    columns = ETL_COLUMNS + ((FEE_COLUMN,) if fees is not None else ())
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for i in range(len(batch)):
            row = [
                f"0x{i:064x}",
                int(batch.blocks[i]),
                to_address(int(batch.senders[i])),
                to_address(int(batch.receivers[i])),
                float(values[i]) if values is not None else 0,
            ]
            if fees is not None:
                row.append(float(fees[i]))
            writer.writerow(row)
    return len(batch)


def read_transactions_csv(
    path: Union[str, Path],
    registry: Optional[AccountRegistry] = None,
) -> Tuple[Trace, AccountRegistry]:
    """Read an ethereum-etl style CSV into a :class:`Trace` (eager).

    Unknown addresses are registered on the fly; rows with an empty
    ``to_address`` (contract creations) are skipped, as in the paper's
    account-graph construction. Rows may appear in any block order —
    the whole file is decoded, then stable-sorted by block. For
    bounded-memory ingest of large block-ordered extracts use
    :class:`repro.data.source.CsvTraceSource` instead.

    An **all-zero value column** is treated as absent: that is what
    the writer emits for metric-only traces (and what every pre-value
    file carries), and materialising it would silently turn executed
    replays of those files into zero-amount transfers instead of the
    executor's default amount. Real extracts always carry non-zero
    values somewhere, so genuine value columns are unaffected.
    """
    path = Path(path)
    if registry is None:
        registry = AccountRegistry()
    # One unbounded chunk: its lazy value activation is exactly the
    # all-zero rule above.
    decoder = _BlockDecoder(path, registry, sys.maxsize, check_order=False)
    chunks = list(decoder.chunks())
    if chunks:
        (batch,) = chunks
    else:
        empty = np.zeros(0, dtype=np.int64)
        fees = np.zeros(0, dtype=np.float64) if decoder.row_decoder.has_fees else None
        batch = TransactionBatch(empty, empty, empty, None, fees)
    order = np.argsort(batch.blocks, kind="stable")
    batch = TransactionBatch(
        batch.senders[order],
        batch.receivers[order],
        batch.blocks[order],
        None if batch.values is None else batch.values[order],
        None if batch.fees is None else batch.fees[order],
    )
    return Trace(batch, n_accounts=len(registry)), registry
