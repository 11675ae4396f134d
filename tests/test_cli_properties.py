"""Property tests of the CLI over drawn numeric arguments.

Whatever the numbers, `transfer --random`, `validate` and `paths` exit 0,
1 or 2 and never raise, and an exit of 0 comes with finite numbers in every
output CSV.  Each example draws every option from its valid domain and then
may replace one of them by text that argparse rejects.  Derandomized, with
a bounded number of examples.
"""

import csv
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import (
    Geometry,
    datasheet_circulator,
    save_network,
    two_qubit_network,
)
from loopnet.cli import main
from loopnet.network import TOL_UNITARY
from loopnet.paths import MAX_ORDER

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
INVALID = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e999", "x", ""])

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None,
                    database=None)


@st.composite
def options(draw, domains: dict) -> list:
    """--name=value for every option, at most one of them invalid."""
    values = {name: repr(draw(domain)) for name, domain in domains.items()}
    replaced = draw(st.one_of(st.none(), st.sampled_from(sorted(values))))
    if replaced is not None:
        values[replaced] = draw(INVALID)
    return [f"--{name}={value}" for name, value in values.items()]


def finite_csvs(outdir: Path) -> bool:
    """Every number in every CSV is finite."""
    for path in outdir.glob("*.csv"):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                for cell in row.values():
                    try:
                        value = float(cell)
                    except ValueError:  # a path or an empty error cell
                        continue
                    if not math.isfinite(value):
                        return False
    return True


def run(argv) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        code = main(argv + ["-o", str(outdir)])
        assert code in (0, 1, 2)
        if code == 0:
            assert finite_csvs(outdir)


@pytest.fixture(scope="module")
def net_file(tmp_path_factory):
    c = datasheet_circulator()
    path = tmp_path_factory.mktemp("net") / "fast.json"
    save_network(two_qubit_network(
        c, c, kappa_a=1e6, kappa_b=1e6,
        geometry=Geometry(k0=0.0, v_p=3e8, kappa0=1e6),
    ), path)
    return str(path)


# T and dt keep a run at most 1,000 RK4 steps, and --sweep at two seeds
@pytest.mark.filterwarnings("ignore:kappa_b.*incomplete:UserWarning")
@settings(PROPERTY, max_examples=100)
@given(argv=options({
    "eps": FINITE, "phase": FINITE, "seed": st.integers(min_value=0),
    "kappa0": POSITIVE, "ratio-db": FINITE, "T": st.floats(0.01, 1.0),
    "dt": st.floats(1e-3, 0.5), "sweep": st.integers(0, 2),
}), swap=st.booleans())
def test_transfer_random_exits_cleanly(argv, swap):
    run(["transfer", "--random", *argv] + ["--swap-roles"] * swap)


# a weight threshold below 1e-6 prunes almost nothing, and the walk then
# runs to the 10^6-record cap (exit 2 after seconds per example)
@PROPERTY
@given(argv=options({
    "weight-threshold": st.floats(min_value=1e-6, allow_infinity=False),
    "tau-min": NON_NEGATIVE,
    "tol-unitary": st.floats(0.0, TOL_UNITARY, exclude_min=True),
}))
def test_validate_exits_cleanly(net_file, argv):
    run(["validate", net_file, *argv])


# orders past MAX_ORDER are refused before any walk.  In range, the draws
# stay small: with min-weight 0 this network's walk has 2,712 records at
# order 10, 335,506 at order 20 and runs into the 10^6-record cap by 40
@PROPERTY
@given(argv=options({
    "max-order": st.one_of(st.integers(0, 10),
                           st.integers(min_value=MAX_ORDER + 1)),
    "min-weight": NON_NEGATIVE,
    "weight-threshold": POSITIVE, "tau-min": NON_NEGATIVE,
}))
def test_paths_exits_cleanly(net_file, argv):
    run(["paths", net_file, *argv])
