"""Every CSV table holds repr's text of each cell, byte for byte.

`io._write_table` prints blocks of cells through orjson and falls back to
repr for the cells whose notation differs.  The oracle here is the plain
repr writer.  Values cover every exponent of both signs, the cells near
the edges of the range where the two notations agree ([1e-4, 1e16)),
subnormals, zeros, the largest float, nan and the infinities; shapes cover
empty tables, one row, a row count either side of one block, and the
strided emit grid of an estimates file.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import io

EDGES = [1e-4, 1e16]
SPECIALS = ([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.3e-320,
             np.finfo(float).max, -np.finfo(float).max, np.nan, np.inf, -np.inf]
            + [s * np.nextafter(e, to) for e in EDGES for to in (0.0, np.inf) for s in (1, -1)]
            + [s * e for e in EDGES for s in (1, -1)])
WIDTHS = [1, 5, 50]

# a float64 from any 64-bit pattern: every exponent, both signs, nan payloads
bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0])


def _oracle(columns, t_values, rows) -> bytes:
    lines = ["t," + ",".join(columns)]
    lines += [f"{t}," + ",".join(map(repr, row.tolist())) for t, row in zip(t_values, rows)]
    return ("\n".join(lines) + "\n").encode()


def _cells(rng, size: int, scattered) -> np.ndarray:
    """size float64 cells: a mix of random bit patterns, random mantissas
    with exponents around the edges, decimal-like values, and the
    scattered values at random places."""
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    near = rng.integers(1023 - 20, 1023 + 60, size=size, dtype=np.uint64)
    mantissa = rng.integers(0, 2**52, size=size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=size, dtype=np.uint64)
    edged = ((sign << np.uint64(63)) | (near << np.uint64(52)) | mantissa).view(np.float64)
    decimal = np.round(rng.normal(size=size) * 1e6) * 10.0 ** rng.integers(-16, 12, size=size)
    kind = rng.integers(0, 3, size=size)
    cells = np.where(kind == 0, bits.view(np.float64), np.where(kind == 1, edged, decimal))
    if size:
        cells[rng.integers(0, size, size=len(scattered))] = scattered
    return cells


values = st.lists(st.sampled_from(SPECIALS) | bit_patterns, max_size=40)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(width=st.sampled_from(WIDTHS),
       rows=st.sampled_from(["none", "one", "a block - 1", "a block", "a block + 1"]),
       seed=st.integers(0, 2**32 - 1), scattered=values)
def test_a_table_is_the_repr_text_of_its_cells(tmp_path_factory, width, rows, seed, scattered):
    block = io.TABLE_BLOCK_CELLS // width
    count = {"none": 0, "one": 1, "a block - 1": block - 1, "a block": block,
             "a block + 1": block + 1}[rows]
    table = _cells(np.random.default_rng(seed), count * width, scattered).reshape(count, width)
    columns = [f"c{j}" for j in range(width)]
    t_values = range(3, 3 + count)
    path = tmp_path_factory.mktemp("table") / "t.csv"
    io._write_table(path, columns, t_values, table)
    assert path.read_bytes() == _oracle(columns, t_values, table)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2)]), T=st.integers(1, 400),
       t_start=st.integers(0, 420), seed=st.integers(0, 2**32 - 1), scattered=values)
def test_an_estimates_file_is_the_repr_text_of_its_grid_rows(tmp_path_factory, shape, T, t_start,
                                                             seed, scattered):
    # the writer hands _write_table the strided view [t_start::7]; past the
    # last grid row it holds no rows and the file is its header alone
    N, P = shape
    norms = _cells(np.random.default_rng(seed), T * N * N * P, scattered).reshape(T, N, N, P)
    path = tmp_path_factory.mktemp("estimates") / "e.csv"
    io.write_estimates_csv(path, norms, t_start=t_start, emit_every=7)
    grid = norms[t_start::7]
    assert path.read_bytes() == _oracle(io.estimate_column_names(N, P), range(t_start, T, 7),
                                        grid.reshape(len(grid), N * N * P))
