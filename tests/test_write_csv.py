"""`cli.write_csv` writes exactly the bytes of a per-value "%.17g" join.

The reference is the row-by-row join that
`test_cli.test_write_csv_matches_per_value_format` also uses.  The values
cover the three paths of the writer: the integer kernel (0 and
1e-11 < |x| < 1e15), the per-value "%.17g" for everything else, and a
column whose cells are all the same, written once into a separator.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import cli
from loopnet.cli import _BLOCK, _CELL, write_csv


def per_value_csv(header, columns) -> bytes:
    lines = [",".join(header)] + [
        ",".join(v if isinstance(v, str) else "%.17g" % v for v in row)
        for row in zip(*columns)
    ]
    return ("\n".join(lines) + "\n").encode()


def assert_exact(tmp_path, header, columns):
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == per_value_csv(header, columns)


def edge_values(rng: np.random.Generator) -> np.ndarray:
    """About 1.05e6 values aimed at every branch of the writer."""
    powers = np.array([float(f"1e{k}") for k in range(-12, 17)])
    up, down = np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)
    near = np.concatenate([powers, up, down, np.nextafter(up, np.inf),
                           np.nextafter(down, -np.inf)])  # +-2 ulp
    # m 2**q with m < 2**20 are exact decimals ending in 5 for q < 0, and
    # about 1.7% have exactly 18 significant digits: ties at 17, like 2**-25
    ties = rng.integers(1, 2**20, 300_000) * 2.0 ** rng.integers(-55, 30, 300_000)
    return np.concatenate([
        rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(np.float64),
        rng.uniform(-1.0, 1.0, 300_000) * 10.0 ** rng.uniform(-14, 17, 300_000),
        near, -near,
        ties, 2.0 ** np.arange(-60.0, 60.0),
        rng.integers(-10**15, 10**15, 200_000).astype(np.float64),
        np.arange(-50_000.0, 50_000.0),
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 1e-11, 1e15],
    ])


def test_a_million_edge_values_are_exact(tmp_path):
    x = edge_values(np.random.default_rng(2024))
    assert x.size >= 10**6
    write_csv(tmp_path / "x.csv", ["x"], [x])
    # the per-value join of a one-column table, as one format string
    expected = "x\n" + ("%.17g\n" * x.size) % tuple(x.tolist())
    assert (tmp_path / "x.csv").read_bytes() == expected.encode()


def test_known_cells(tmp_path):
    values = [2.0**-25, -0.0, 0.0, 100.0, 1e15, 1e-5, 0.0001, 12345678.9,
              -2.5e-11, 1.0 / 3.0]
    write_csv(tmp_path / "k.csv", ["x"], [values])
    assert (tmp_path / "k.csv").read_text().splitlines()[1:] == [
        "2.9802322387695312e-08", "-0", "0", "100", "1000000000000000",
        "1.0000000000000001e-05", "0.0001", "12345678.9",
        "-2.5000000000000001e-11", "0.33333333333333331",
    ]


def test_digit_groups_at_their_edges(tmp_path):
    """The kernel writes the 17 digits as a leading digit and four 4-digit
    groups.  Digits whose groups are all 0000 or 9999 behind a leading 1
    or 9, one ulp either side, at every exponent of the kernel and just
    beyond it."""
    digits = ["".join(g) for g in itertools.product(
        "19", *[("0000", "9999")] * 4)]
    x = np.array([float(f"{d}e{k}") for d in digits for k in range(-28, 0)])
    x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
    shown = {("%.16e" % v).replace(".", "")[:17] for v in x}
    for pos in range(4):  # every group takes both edge values
        assert {s[1 + 4 * pos:5 + 4 * pos] for s in shown} >= {"0000", "9999"}
    assert {s[0] for s in shown} >= {"1", "9"}
    assert_exact(tmp_path, ["x", "minus_x"], [x, -x])


def test_tables_across_blocks_and_wide_strings(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * _BLOCK + 3
    names = ["x" * int(k) for k in rng.integers(0, 3 * _CELL, n)]
    columns = [names, rng.normal(size=n), np.arange(n) * 1e-3,
               rng.normal(size=n) * 1e-12, ["err"] * n]
    assert_exact(tmp_path, ["name", "a", "t", "tiny", "error"], columns)
    assert_exact(tmp_path, ["name", "a"], [["w" * 200], [0.5]])
    assert_exact(tmp_path, ["a", "b"], [[], np.array([])])


def block_rows(n_cols: int) -> int:
    return _BLOCK // n_cols  # a block holds about _BLOCK values


@pytest.mark.parametrize("text", [False, True])
@pytest.mark.parametrize("n_cols", [1, 3, 5, 7])
def test_tables_at_the_block_boundaries(tmp_path, n_cols, text):
    """The shapes the CLI writes (and one with a text column) at one and
    two blocks, and one row either side of each block boundary."""
    rows = block_rows(n_cols + text)
    rng = np.random.default_rng(n_cols)
    for n_rows in (rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows,
                   2 * rows + 1):
        scale = 10.0 ** rng.integers(-14, 17, (n_cols, n_rows))
        columns = list(rng.normal(size=(n_cols, n_rows)) * scale)
        if text:
            columns.insert(1, [f"p{k}" * (k % 4) for k in range(n_rows)])
        assert_exact(tmp_path, [f"c{j}" for j in range(len(columns))], columns)


def kernel_values(monkeypatch, path, header, columns) -> int:
    """How many values write_csv passes to the number kernel cli._g17."""
    sizes, g17 = [], cli._g17

    def counting(x, cells, digits):
        sizes.append(x.size)
        return g17(x, cells, digits)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_g17", counting)
        write_csv(path / "count.csv", header, columns)
    return sum(sizes)


SAME = [0.0, -0.0, np.nan, 1e300, 1.0 / 3.0, "same", ""]


@pytest.mark.parametrize("last", [False, True], ids=["mid", "last"])
@pytest.mark.parametrize("value", SAME, ids=repr)
def test_a_column_of_one_value(tmp_path, monkeypatch, value, last):
    """A column after the first whose cells are all the same goes into a
    separator, mid-table and as the last column, across block bounds."""
    n = 2 * block_rows(3) + 3
    rng = np.random.default_rng(5)
    same = [value] * n if isinstance(value, str) else np.full(n, value)
    columns = [np.arange(n) * 1e-3, rng.normal(size=n)]
    columns.insert(len(columns) if last else 1, same)
    header = ["t", "a", "b"]
    assert_exact(tmp_path, header, columns)
    assert kernel_values(monkeypatch, tmp_path, header, columns) == 2 * n


def test_columns_that_only_look_the_same(tmp_path, monkeypatch):
    """0.0 and -0.0, or two NaN payloads, are different cells: such a
    column stays in the kernel, and so does a constant first column."""
    n = 2 * block_rows(4) + 1
    zeros = np.zeros(n)
    zeros[n // 2] = -0.0
    nans = np.full(n, np.nan)
    nans[1] = -np.nan
    columns = [np.full(n, 2.5), zeros, nans, np.full(n, 2.5)]
    header = ["c", "z", "nan", "d"]
    assert_exact(tmp_path, header, columns)
    assert kernel_values(monkeypatch, tmp_path, header, columns) == 3 * n


def test_runs_of_same_columns_across_blocks(tmp_path, monkeypatch):
    """Several same columns in a row, next to text columns, one row either
    side of a block boundary."""
    rng = np.random.default_rng(11)
    for n in (block_rows(4) - 1, block_rows(4) + 1, 2 * block_rows(4)):
        names = [f"p{k}" * (k % 3) for k in range(n)]
        columns = [names, np.zeros(n), ["err"] * n, np.full(n, -7.25),
                   rng.normal(size=n), ["x" * 40] * n, np.ones(n) * 1e-12,
                   names]
        header = [f"c{j}" for j in range(len(columns))]
        assert_exact(tmp_path, header, columns)
        assert kernel_values(monkeypatch, tmp_path, header, columns) == 3 * n


def test_simulate_table_sends_only_its_varying_columns(tmp_path, monkeypatch):
    """The table of `loopnet simulate` (t, re_P0, im_P0, re_Z, im_Z), whose
    im_* columns are 0, passes 3 of its 5 columns to the kernel."""
    n = 10_501
    t = np.arange(n) * 1e-3
    columns = [t, np.exp(-t), np.zeros(n), 2 * np.exp(-t) - 1, np.zeros(n)]
    header = ["t", "re_P0", "im_P0", "re_Z", "im_Z"]
    assert kernel_values(monkeypatch, tmp_path, header, columns) == 3 * n


def traced_peak(path, columns) -> int:
    """The peak traced memory write_csv allocates over its inputs."""
    tracemalloc.start()
    try:
        write_csv(path, [f"c{j}" for j in range(len(columns))], columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_workspace_does_not_grow_with_the_table(tmp_path):
    """Every block is formatted in one workspace allocated per call: the
    peak memory of a 20-block table is that of a 2-block table (to 1 kB:
    a few Python ints), and stays below 1.5 MB for the 7-column trajectory
    shape.  The first call also makes numpy's lazy one-time allocations."""
    rng = np.random.default_rng(3)
    rows = block_rows(7)
    peaks = [traced_peak(tmp_path / "x.csv",
                         [rng.normal(size=n_blocks * rows) for _ in range(7)])
             for n_blocks in (2, 2, 20)]
    assert abs(peaks[2] - peaks[1]) < 1e3
    assert max(peaks) < 1.5e6


# NUL is the writer's padding; the CLI's strings are ASCII names
TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\0"), max_size=40)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    columns = []
    for is_text in kinds:
        cell = TEXT if is_text and n_rows else st.floats(width=64)
        if draw(st.booleans()):  # one cell in every row
            columns.append([draw(cell)] * n_rows)
        else:
            columns.append(draw(st.lists(cell, min_size=n_rows,
                                         max_size=n_rows)))
    return [f"c{j}" for j in range(len(columns))], columns


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(tables())
def test_drawn_tables_match_the_per_value_join(tmp_path_factory, table):
    header, columns = table
    assert_exact(tmp_path_factory.mktemp("csv"), header, columns)
