"""Block-columnar CSV decode vs the row-at-a-time oracle.

Contract under test: ``CsvTraceSource`` and ``read_transactions_csv``
decode through :class:`repro.data.etl._BlockDecoder`, and whatever the
input — messy spellings, blank lines, any line endings, quoted fields
spanning blocks, extra columns, a bad cell anywhere — a consumer sees
exactly what the per-row oracle in ``tests/oracles/csv_rows.py`` gives:
the same chunks, the same registry order, and the same typed error at
the same line. Block size is a module constant; the property varies it
together with ``chunk_rows``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.csv_rows import row_chunks, row_read

from repro.chain.account import AccountRegistry, address_from_id
from repro.data import (
    CsvTraceSource,
    EthereumTraceConfig,
    ValueModelConfig,
    generate_ethereum_like_trace,
    read_transactions_csv,
    write_transactions_csv,
)
from repro.data import etl
from repro.errors import MalformedRowError

BODIES = [address_from_id(i)[2:] for i in range(6)]


def spell(body: str, style: str) -> str:
    """One address in one of the spellings ``_normalize`` accepts."""
    if style == "upper":
        return "0x" + body.upper()
    if style == "bare":
        return body
    if style == "padded":
        return f" 0x{body}\t"
    return "0x" + body


def sometimes(draw, enabled):
    """True for roughly one draw in eight, when the file enables it."""
    return enabled and draw(st.integers(0, 7)) == 0


@st.composite
def csv_files(draw):
    # Each messy feature is switched on per file, so clean files (whose
    # blocks take the columnar path, carrying order state across
    # blocks) are drawn as often as messy ones.
    messy = draw(st.fixed_dictionaries({
        name: st.booleans()
        for name in (
            "spelling", "blank", "quoted", "create", "cells", "order", "bad",
            "crlf", "cr",
        )
    }))
    extra = draw(st.integers(0, 2))
    has_fee = draw(st.booleans())
    columns = ["hash", "block_number", "from_address", "to_address", "value"]
    columns += ["fee"] * has_fee + [f"extra{i}" for i in range(extra)]
    columns = draw(st.permutations(columns))
    index = {name: i for i, name in enumerate(columns)}
    styles = st.sampled_from(["upper", "bare", "padded"])
    amounts = st.sampled_from(["0", "0", "1.5", "12", "2e3", " 7 ", ""])

    lines = [",".join(columns)]
    block = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 40))):
        if sometimes(draw, messy["blank"]):
            lines.append("")
            continue
        block += draw(st.integers(0, 2))
        if sometimes(draw, messy["order"]):
            block -= 3  # out of order, unless it is a self-transfer
        filler = st.sampled_from([f"0x{len(lines):x}", "7", "0x" + BODIES[0]])
        cells = [draw(filler) for _ in columns]
        cells[index["block_number"]] = str(block)
        for column in ("from_address", "to_address"):
            # Equal endpoints make a self-transfer.
            body = draw(st.sampled_from(BODIES))
            style = draw(styles) if sometimes(draw, messy["spelling"]) else "plain"
            cells[index[column]] = spell(body, style)
        cells[index["value"]] = draw(amounts)
        if has_fee:
            cells[index["fee"]] = draw(amounts)
        if sometimes(draw, messy["create"]):
            cells[index["to_address"]] = ""
        if sometimes(draw, messy["quoted"]):
            # A quoted cell holding commas and newlines: it spans lines,
            # and at small block sizes it spans blocks.
            cells[index["hash"]] = '"0x,\nab\r\ncd"'
        if sometimes(draw, messy["cells"]):
            cells.append(draw(filler))  # more cells than the header
        elif columns[-1].startswith("extra") and sometimes(draw, messy["cells"]):
            cells.pop()  # fewer cells, but none the decoder reads
        lines.append(",".join(cells))
    if len(lines) > 1 and messy["bad"]:
        # One bad cell at a random line.
        at = draw(st.integers(1, len(lines) - 1))
        if lines[at]:
            cells = lines[at].split(",")
            column, bad = draw(
                st.sampled_from(
                    [
                        ("block_number", "x1"),
                        ("block_number", "-3"),
                        ("block_number", "9" * 20),  # beyond int64
                        ("block_number", "0"),  # out of order
                        ("from_address", "0x1234"),
                        ("to_address", "0x" + "zz" * 20),
                        ("to_address", "0x-" + "0" * 39),
                        ("value", "nan"),
                        ("value", "inf"),
                        ("value", "-1"),
                        ("fee", "1e999"),
                        ("hash", "0x\x00"),
                    ]
                )
            )
            if column in index and index[column] < len(cells):
                cells[index[column]] = bad
                lines[at] = ",".join(cells)
    endings = ["\n"] + ["\r\n"] * messy["crlf"]
    text = ""
    for line in lines:
        ending = "\r" if sometimes(draw, messy["cr"]) else None
        text += line + (ending or draw(st.sampled_from(endings)))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line terminator
    return text


def capture(make_chunks):
    """``(chunks, error)``: everything yielded, then what was raised."""
    chunks = []
    try:
        for chunk in make_chunks():
            chunks.append(chunk)
    except Exception as exc:  # compared by type and message
        return chunks, (type(exc), str(exc))
    return chunks, None


def assert_batches_equal(a, b):
    assert np.array_equal(a.senders, b.senders)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.blocks, b.blocks)
    for x, y in ((a.values, b.values), (a.fees, b.fees)):
        if x is None or y is None:
            assert x is None and y is None
        else:
            assert np.array_equal(x, y)


def assert_chunks_equal(got, want):
    assert [len(c) for c in got] == [len(c) for c in want]
    for a, b in zip(got, want):
        assert_batches_equal(a, b)


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=csv_files(),
    chunk_rows=st.integers(1, 12),
    block_lines=st.sampled_from([1, 2, 3, 5, 8, 4096]),
)
def test_block_decoder_matches_row_oracle(
    tmp_path, monkeypatch, text, chunk_rows, block_lines
):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(etl, "_BLOCK_LINES", block_lines)

    want_registry = AccountRegistry()
    want = capture(lambda: row_chunks(path, want_registry, chunk_rows))
    source = CsvTraceSource(path, chunk_rows=chunk_rows)
    got = capture(source.chunks)
    assert got[1] == want[1]
    assert_chunks_equal(got[0], want[0])
    assert list(source.registry) == list(want_registry)
    assert source.peak_buffer_rows <= chunk_rows

    eager_registry = AccountRegistry()
    eager = capture(lambda: [row_read(path, eager_registry)])
    got_eager = capture(lambda: [read_transactions_csv(path)[0].batch])
    assert got_eager[1] == eager[1]
    if eager[1] is None:
        (a,), (b,) = got_eager[0], eager[0]
        if len(b):
            assert_batches_equal(a, b)
        assert len(a) == len(b)


def test_quoted_field_spanning_a_block_boundary(tmp_path, monkeypatch):
    a, b = address_from_id(0), address_from_id(1)
    path = tmp_path / "quoted.csv"
    path.write_text(
        "hash,block_number,from_address,to_address,value\n"
        f"h0,1,{a},{b},1\n"
        f'"h1\nstill h1",2,{b},{a},2\n'
        f"h2,3,{a},{b},0\n"
        f"h3,x,{a},{b},0\n"
    )
    monkeypatch.setattr(etl, "_BLOCK_LINES", 2)
    source = CsvTraceSource(path)
    with pytest.raises(MalformedRowError, match=r"quoted\.csv:5: "):
        list(source.chunks())
    assert source.fallback_blocks == 1


A, B, C, D = (address_from_id(i) for i in range(4))


@pytest.mark.parametrize(
    "text",
    [
        # One extra cell, then one short row: the total field count is
        # right, and taken by stride the second row still parses.
        f"1,1,9,{A},{B},x,9\n2,3,{A},{C},{D}\n",
        # A lone CR ends a record without a newline, merging two fields:
        # the rows after it shift by one and still parse.
        f"1,1,9,{A},{B},x\r2,3,5,{C},{D},{A}\n",
    ],
    ids=["extra-then-short", "lone-cr"],
)
def test_misaligned_rows_fall_back(tmp_path, text):
    path = tmp_path / "shifted.csv"
    header = "value,block_number,extra1,from_address,to_address,extra2\n"
    path.write_bytes((header + text).encode())
    source = CsvTraceSource(path)
    chunks = list(source.chunks())
    assert source.fallback_blocks == 1
    assert_chunks_equal(chunks, list(row_chunks(path, AccountRegistry(), 65_536)))
    assert chunks[0].values.tolist() == [1.0, 2.0]


def test_out_of_order_across_a_block_boundary(tmp_path, monkeypatch):
    path = tmp_path / "ooo.csv"
    path.write_text(
        "hash,block_number,from_address,to_address,value\n"
        f"h0,5,{A},{B},1\n"
        f"h1,6,{B},{C},1\n"
        f"h2,4,{C},{D},1\n"
        f"h3,7,{D},{A},1\n"
    )
    monkeypatch.setattr(etl, "_BLOCK_LINES", 2)
    with pytest.raises(MalformedRowError, match=r"ooo\.csv:4: block 4 out of order"):
        list(CsvTraceSource(path).chunks())


@pytest.mark.parametrize("bad_at", [5, 3_000, 4_500])
def test_undecodable_bytes_raise_where_the_row_path_does(tmp_path, bad_at):
    # The text layer fails on the 8 KB buffer holding the bad byte, a
    # few rows before its line; every row read before then decodes.
    rows = [f"h{i},{i},{A if i % 2 else C},{B},1\n".encode() for i in range(5_000)]
    rows[bad_at] = b"h,\xff,x,y,1\n"
    path = tmp_path / "bytes.csv"
    header = b"hash,block_number,from_address,to_address,value\n"
    path.write_bytes(header + b"".join(rows))
    want_registry = AccountRegistry()
    want = capture(lambda: row_chunks(path, want_registry, 1_000))
    source = CsvTraceSource(path, chunk_rows=1_000)
    got = capture(source.chunks)
    assert got[1] == want[1]
    assert got[1][0] is UnicodeDecodeError
    assert_chunks_equal(got[0], want[0])
    assert list(source.registry) == list(want_registry)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "Infinity"])
@pytest.mark.parametrize("column", ["value", "fee"])
def test_non_finite_amounts_rejected_on_both_paths(tmp_path, column, cell):
    a, b = address_from_id(0), address_from_id(1)
    good = ["1", "1"]
    bad = ["1", "1"]
    bad[column == "fee"] = cell
    path = tmp_path / "inf.csv"
    path.write_text(
        "hash,block_number,from_address,to_address,value,fee\n"
        f"h0,1,{a},{b},{good[0]},{good[1]}\n"
        f"h1,2,{b},{a},{bad[0]},{bad[1]}\n"
    )
    # The block check must refuse the cell, or nothing would raise; the
    # row decoder it falls back to names the line.
    with pytest.raises(MalformedRowError, match=rf"inf\.csv:3: bad {column}"):
        list(CsvTraceSource(path).chunks())
    with pytest.raises(MalformedRowError, match=rf"inf\.csv:3: bad {column}"):
        read_transactions_csv(path)


def valued_csv(tmp_path, n):
    config = EthereumTraceConfig(
        n_accounts=max(n // 10, 50),
        n_transactions=n,
        n_blocks=max(n // 30, 10),
        seed=7,
        value_model=ValueModelConfig(fee_fraction=0.05),
    )
    path = tmp_path / f"trace_{n}.csv"
    write_transactions_csv(path, generate_ethereum_like_trace(config))
    return path


def test_writer_output_never_falls_back(tmp_path):
    path = valued_csv(tmp_path, 20_000)
    source = CsvTraceSource(path, chunk_rows=3_000)
    chunks = list(source.chunks())
    assert source.fallback_blocks == 0
    oracle = list(row_chunks(path, AccountRegistry(), 3_000))
    assert_chunks_equal(chunks, oracle)


def test_decode_peak_memory_within_row_oracle(tmp_path):
    # Pins the block size: 4096-line blocks stay under the row path's
    # peak; blocks of ~65k lines would not.
    path = valued_csv(tmp_path, 50_000)

    def peak(decode):
        tracemalloc.start()
        try:
            for _ in decode():
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = peak(lambda: CsvTraceSource(path).chunks())
    oracle = peak(lambda: row_chunks(path, AccountRegistry(), 65_536))
    assert block <= oracle
