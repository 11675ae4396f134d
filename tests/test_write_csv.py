"""`cli.write_csv` writes exactly the bytes of a per-value "%.17g" join.

The reference is the row-by-row join that
`test_cli.test_write_csv_matches_per_value_format` also uses.  The values
cover both paths of the writer: the integer kernel (0 and
1e-11 < |x| < 1e15) and the per-value "%.17g" for everything else.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_tables_across_blocks_and_wide_strings(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * _BLOCK + 3
    names = ["x" * int(k) for k in rng.integers(0, 3 * _CELL, n)]
    columns = [names, rng.normal(size=n), np.arange(n) * 1e-3,
               rng.normal(size=n) * 1e-12, ["err"] * n]
    assert_exact(tmp_path, ["name", "a", "t", "tiny", "error"], columns)
    assert_exact(tmp_path, ["name", "a"], [["w" * 200], [0.5]])
    assert_exact(tmp_path, ["a", "b"], [[], np.array([])])


# NUL is the writer's padding; the CLI's strings are ASCII names
TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\0"), max_size=40)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    columns = []
    for is_text in kinds:
        if is_text and n_rows:
            columns.append(draw(st.lists(TEXT, min_size=n_rows,
                                         max_size=n_rows)))
        else:
            columns.append(draw(st.lists(st.floats(width=64),
                                         min_size=n_rows, max_size=n_rows)))
    return [f"c{j}" for j in range(len(columns))], columns


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(tables())
def test_drawn_tables_match_the_per_value_join(tmp_path_factory, table):
    header, columns = table
    assert_exact(tmp_path_factory.mktemp("csv"), header, columns)
