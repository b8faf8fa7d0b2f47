"""Arrow-backed columnar CSV decode for :class:`CsvTraceSource`.

The streamed python decoder (:class:`repro.data.etl._BlockDecoder`)
still pays interpreted per-cell ``int``/``float`` parses and address
lookups, which dominate 1M-row ingest. This module decodes the same
ethereum-etl files through ``pyarrow.csv``'s streaming reader instead:
rows arrive as columnar record batches, every cell validation is a
vectorised kernel, and only address registration touches per-row Python
state — on the hash-map, not on the csv text.

The columnar path honours the exact chunk contract of the reference
decoder (which remains the equivalence reference, property-pinned in
``tests/test_data_arrow.py``):

* chunks are block-ordered :class:`TransactionBatch` slices of exactly
  ``chunk_rows`` rows (final chunk partial), with the same lazy
  value-column activation and optional fee column;
* the registry sees addresses in the same interleaved first-occurrence
  order, so dense account ids are identical;
* malformed input surfaces the same typed errors with the same file and
  1-based line numbers.

Arrow cannot track source line numbers through its block reader, so the
error contract is kept by *replay*: any anomaly the columnar kernels
detect (bad cell, negative value, out-of-order block, reader error)
aborts the fast path and the caller re-decodes through the reference
decoder — seamlessly when no chunk was emitted yet (registration is
idempotent and prefix-ordered, so the python decoder continues with
identical ids), or as an error-reporting replay otherwise. Either way
the caller observes exactly the python decoder's behaviour.

When pyarrow is missing, ``decoder="auto"`` quietly resolves to the
python path and ``decoder="arrow"`` raises a :class:`DataError` naming
the missing dependency (installed by the ``repro[fast]`` extra).
"""

from __future__ import annotations

import csv
from itertools import chain
from typing import Iterator, List, Optional

import numpy as np

from repro.chain.transaction import TransactionBatch
from repro.data.etl import _RowDecoder
from repro.errors import DataError

__all__ = [
    "PYARROW_AVAILABLE",
    "DECODER_PYTHON",
    "DECODER_ARROW",
    "DECODER_AUTO",
    "DECODERS",
    "ArrowDecodeAnomaly",
    "arrow_chunks",
    "describe",
    "resolve_decoder",
]

try:  # pragma: no cover - exercised implicitly per environment
    import pyarrow  # noqa: F401

    PYARROW_AVAILABLE = True
except ImportError:  # pragma: no cover
    PYARROW_AVAILABLE = False

#: Decoder knob values accepted by :class:`CsvTraceSource`.
DECODER_PYTHON = "python"
DECODER_ARROW = "arrow"
DECODER_AUTO = "auto"
DECODERS = (DECODER_PYTHON, DECODER_ARROW, DECODER_AUTO)

#: pyarrow block size bounds: roughly ``chunk_rows`` worth of raw csv
#: text per record batch (~128 bytes/row), clamped to sane IO sizes.
_MIN_BLOCK_BYTES = 1 << 16
_MAX_BLOCK_BYTES = 1 << 24
_BYTES_PER_ROW = 128


def pyarrow_version() -> str:
    """The installed pyarrow version, or ``""`` when absent."""
    if not PYARROW_AVAILABLE:
        return ""
    import pyarrow

    return pyarrow.__version__


def describe() -> str:
    """One-line status of the columnar ingest fast path."""
    if PYARROW_AVAILABLE:
        return f"pyarrow {pyarrow_version()} (csv ingest: arrow columnar)"
    return "pyarrow absent (csv ingest: python row decoder)"


def resolve_decoder(name: str) -> str:
    """Resolve a decoder knob to ``"python"`` or ``"arrow"``.

    ``"auto"`` selects arrow exactly when pyarrow is importable;
    requesting ``"arrow"`` without pyarrow raises a :class:`DataError`
    (install the ``repro[fast]`` extra), so an explicit choice never
    silently degrades.
    """
    if name == DECODER_AUTO:
        return DECODER_ARROW if PYARROW_AVAILABLE else DECODER_PYTHON
    if name == DECODER_PYTHON:
        return DECODER_PYTHON
    if name == DECODER_ARROW:
        if not PYARROW_AVAILABLE:
            raise DataError(
                "decoder='arrow' requires pyarrow (pip install 'repro[fast]')"
            )
        return DECODER_ARROW
    raise DataError(
        f"decoder must be one of {DECODERS}, got {name!r}"
    )


class ArrowDecodeAnomaly(Exception):
    """Internal: the columnar fast path hit input it cannot vectorise.

    Not a user-facing error — :meth:`CsvTraceSource.chunks` catches it
    and re-decodes through the python reference path, which either
    raises the contract's typed error with the exact line number or
    proves the file decodes fine row-wise.
    """


class _ChunkAssembler:
    """Re-chunk columnar survivor rows into exact ``chunk_rows`` slices.

    Mirrors the python decoder's flush discipline: every emitted chunk
    is exactly ``chunk_rows`` rows (the final one partial), and the
    value column activates lazily — a chunk carries ``values`` iff a
    nonzero value was decoded anywhere up to and including that chunk's
    rows, matching the reference's append-time activation.
    """

    def __init__(self, chunk_rows: int, has_values: bool, has_fees: bool) -> None:
        self.chunk_rows = chunk_rows
        self.has_values = has_values
        self.has_fees = has_fees
        self.values_active = False
        self._senders = np.zeros(0, dtype=np.int64)
        self._receivers = np.zeros(0, dtype=np.int64)
        self._blocks = np.zeros(0, dtype=np.int64)
        self._values = np.zeros(0, dtype=np.float64)
        self._fees = np.zeros(0, dtype=np.float64)

    @property
    def rows(self) -> int:
        return len(self._senders)

    def append(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        blocks: np.ndarray,
        values: Optional[np.ndarray],
        fees: Optional[np.ndarray],
    ) -> None:
        self._senders = np.concatenate([self._senders, senders])
        self._receivers = np.concatenate([self._receivers, receivers])
        self._blocks = np.concatenate([self._blocks, blocks])
        if self.has_values:
            self._values = np.concatenate([self._values, values])
        if self.has_fees:
            self._fees = np.concatenate([self._fees, fees])

    def _emit(self, size: int) -> TransactionBatch:
        values = None
        if self.has_values:
            head = self._values[:size]
            if not self.values_active and head.any():
                self.values_active = True
            if self.values_active:
                values = head.copy()
            self._values = self._values[size:]
        fees = None
        if self.has_fees:
            fees = self._fees[:size].copy()
            self._fees = self._fees[size:]
        batch = TransactionBatch(
            self._senders[:size].copy(),
            self._receivers[:size].copy(),
            self._blocks[:size].copy(),
            values,
            fees,
        )
        self._senders = self._senders[size:]
        self._receivers = self._receivers[size:]
        self._blocks = self._blocks[size:]
        return batch

    def ready(self) -> Iterator[TransactionBatch]:
        """Emit every complete ``chunk_rows``-sized chunk buffered."""
        while self.rows >= self.chunk_rows:
            yield self._emit(self.chunk_rows)

    def flush(self) -> Iterator[TransactionBatch]:
        """Emit the final partial chunk, if any."""
        if self.rows:
            yield self._emit(self.rows)


def arrow_chunks(source) -> Iterator[TransactionBatch]:
    """Columnar chunk stream for a :class:`CsvTraceSource`.

    Yields the same block-ordered :class:`TransactionBatch` chunks the
    source's python path yields. Raises :class:`ArrowDecodeAnomaly` on
    anything the vectorised kernels cannot accept verbatim — the caller
    owns the replay/fallback policy. Header problems raise the python
    decoder's own :class:`DataError` directly (the header is resolved
    through :class:`_RowDecoder` before any arrow work).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.csv as pacsv

    path = source.path
    registry = source.registry
    # Header through the reference decoder: identical empty-file /
    # missing-column errors, identical first-occurrence column indices.
    with path.open(newline="") as handle:
        fieldnames = next(csv.reader(handle), None)
    decoder = _RowDecoder(path, fieldnames, registry)
    names = [f"c{i}" for i in range(len(fieldnames))]
    block_size = min(
        max(source.chunk_rows * _BYTES_PER_ROW, _MIN_BLOCK_BYTES),
        _MAX_BLOCK_BYTES,
    )

    try:
        reader = pacsv.open_csv(
            str(path),
            read_options=pacsv.ReadOptions(
                skip_rows=1, column_names=names, block_size=block_size
            ),
            parse_options=pacsv.ParseOptions(newlines_in_values=True),
            convert_options=pacsv.ConvertOptions(
                column_types={name: pa.string() for name in names}
            ),
        )
    except Exception as exc:
        raise ArrowDecodeAnomaly(f"reader open failed: {exc}") from exc

    assembler = _ChunkAssembler(
        source.chunk_rows, decoder.has_values, decoder.has_fees
    )
    id_of_raw: dict = {}
    last_block = -1

    while True:
        try:
            batch = reader.read_next_batch()
        except StopIteration:
            break
        except Exception as exc:
            raise ArrowDecodeAnomaly(f"batch read failed: {exc}") from exc
        if batch.num_rows == 0:
            continue
        columns = batch.columns

        # Endpoint trim + contract-creation skip happen before any cell
        # validation, exactly like the reference decoder (a row with an
        # empty endpoint is skipped even if its block cell is garbage).
        try:
            from_trim = pc.utf8_trim_whitespace(columns[decoder.from_index])
            to_trim = pc.utf8_trim_whitespace(columns[decoder.to_index])
            keep = pc.fill_null(
                pc.and_(
                    pc.not_equal(from_trim, ""), pc.not_equal(to_trim, "")
                ),
                False,
            )
            from_kept = pc.filter(from_trim, keep)
            to_kept = pc.filter(to_trim, keep)
            block_kept = pc.utf8_trim_whitespace(
                pc.filter(columns[decoder.block_index], keep)
            )
            blocks = pc.cast(block_kept, pa.int64()).to_numpy(
                zero_copy_only=False
            )
        except ArrowDecodeAnomaly:
            raise
        except Exception as exc:
            raise ArrowDecodeAnomaly(f"block decode failed: {exc}") from exc
        if blocks.size and int(blocks.min()) < 0:
            raise ArrowDecodeAnomaly("negative block_number")

        values = None
        if decoder.has_values:
            values = _cast_amount_column(
                pc, pa, columns[decoder.value_index], keep, "value"
            )
        fees = None
        if decoder.has_fees:
            fees = _cast_amount_column(
                pc, pa, columns[decoder.fee_index], keep, "fee"
            )

        # Registration: dense ids in interleaved (sender, receiver)
        # first-occurrence order, same as the per-row reference. Only
        # unseen raw spellings hit the registry's validating register;
        # repeats resolve through a plain dict.
        froms: List[str] = from_kept.to_pylist()
        tos: List[str] = to_kept.to_pylist()
        for address in dict.fromkeys(chain.from_iterable(zip(froms, tos))):
            if address not in id_of_raw:
                try:
                    id_of_raw[address] = registry.register(address)
                except Exception as exc:
                    raise ArrowDecodeAnomaly(
                        f"address rejected: {exc}"
                    ) from exc
        senders = np.fromiter(
            (id_of_raw[a] for a in froms), dtype=np.int64, count=len(froms)
        )
        receivers = np.fromiter(
            (id_of_raw[a] for a in tos), dtype=np.int64, count=len(tos)
        )

        # Self-transfers register their endpoints (above) but carry no
        # allocation signal; the block-order contract applies to the
        # rows that survive, exactly like the reference stream.
        tx_keep = senders != receivers
        if not tx_keep.all():
            senders = senders[tx_keep]
            receivers = receivers[tx_keep]
            blocks = blocks[tx_keep]
            if values is not None:
                values = values[tx_keep]
            if fees is not None:
                fees = fees[tx_keep]
        if blocks.size:
            if int(blocks[0]) < last_block or (np.diff(blocks) < 0).any():
                raise ArrowDecodeAnomaly("blocks out of order")
            last_block = int(blocks[-1])
            assembler.append(senders, receivers, blocks, values, fees)
            source.peak_buffer_rows = max(
                source.peak_buffer_rows, assembler.rows
            )
            yield from assembler.ready()

    yield from assembler.flush()


def _cast_amount_column(pc, pa, column, keep, label: str) -> np.ndarray:
    """Decode a value/fee column: trim, empty -> 0, reject bad cells."""
    try:
        trimmed = pc.utf8_trim_whitespace(pc.filter(column, keep))
        filled = pc.if_else(pc.equal(trimmed, ""), "0", trimmed)
        amounts = pc.cast(filled, pa.float64()).to_numpy(
            zero_copy_only=False
        )
    except Exception as exc:
        raise ArrowDecodeAnomaly(f"bad {label} column: {exc}") from exc
    if not np.isfinite(amounts).all() or (amounts < 0).any():
        raise ArrowDecodeAnomaly(f"bad {label} column")
    return amounts
