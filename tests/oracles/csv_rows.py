"""Row-at-a-time CSV decode: the oracle for the block-columnar decoder.

One ``csv.reader`` over the whole file and one
:meth:`repro.data.etl._RowDecoder.decode` call per record — the decode
loop ``CsvTraceSource`` ran before the block decoder replaced it. It
yields the same chunk stream: exactly ``chunk_rows`` rows per chunk
(the last one partial), with the value column activated lazily at the
first nonzero value.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path
from typing import Iterator, List

import numpy as np

from repro.chain.account import AccountRegistry
from repro.chain.transaction import TransactionBatch
from repro.data.etl import _RowDecoder
from repro.errors import MalformedRowError


def row_chunks(
    path: Path,
    registry: AccountRegistry,
    chunk_rows: int,
    check_order: bool = True,
) -> Iterator[TransactionBatch]:
    senders: List[int] = []
    receivers: List[int] = []
    blocks: List[int] = []
    values: List[float] = []
    fees: List[float] = []
    values_active = False

    def flush(decoder: _RowDecoder) -> TransactionBatch:
        batch = TransactionBatch(
            np.asarray(senders, dtype=np.int64),
            np.asarray(receivers, dtype=np.int64),
            np.asarray(blocks, dtype=np.int64),
            np.asarray(values, dtype=np.float64) if values_active else None,
            np.asarray(fees, dtype=np.float64) if decoder.has_fees else None,
        )
        for column in (senders, receivers, blocks, values, fees):
            column.clear()
        return batch

    last_block = -1
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        decoder = _RowDecoder(Path(path), next(reader, None), registry)
        for line, row in enumerate(reader, start=2):
            decoded = decoder.decode(line, row)
            if decoded is None:
                continue
            sender, receiver, block, value, fee = decoded
            if check_order:
                if block < last_block:
                    raise MalformedRowError(
                        path,
                        line,
                        f"block {block} out of order after {last_block} "
                        "(streamed decode requires block-ordered rows; "
                        "use read_transactions_csv for unsorted files)",
                    )
                last_block = block
            senders.append(sender)
            receivers.append(receiver)
            blocks.append(block)
            if decoder.has_values:
                values.append(value)
                values_active = values_active or bool(value)
            if decoder.has_fees:
                fees.append(fee)
            if len(senders) >= chunk_rows:
                yield flush(decoder)
        if senders:
            yield flush(decoder)


def row_read(path: Path, registry: AccountRegistry) -> TransactionBatch:
    """The eager reader's contract: every row, stable-sorted by block."""
    batch = TransactionBatch.concat_many(
        list(row_chunks(path, registry, sys.maxsize, check_order=False))
    )
    order = np.argsort(batch.blocks, kind="stable")
    return TransactionBatch(
        batch.senders[order],
        batch.receivers[order],
        batch.blocks[order],
        None if batch.values is None else batch.values[order],
        None if batch.fees is None else batch.fees[order],
    )
