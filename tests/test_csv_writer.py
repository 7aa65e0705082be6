"""The CSV writer against the %-formatting writer it replaced.

``oracle_write_csv`` is the writer ``cli._write_csv`` used to be: one
``"%.17g,..." % tuple(block)`` per block of rows.  The numpy kernel that
replaced it must write the same bytes for every double, including the
values its fast path hands back to ``%.17g`` (zeros, NaN, infinities,
subnormals, |v| >= 1e16 and near-ties).  Tier-1 turns RuntimeWarnings into
errors, so these tests also show that the kernel warns on nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscxfer.cli import _CSV_BLOCK, _write_csv


ORACLE_BLOCK = 4096  # rows formatted by one %-operation


def oracle_write_csv(path, header, columns):
    columns = [np.asarray(col, dtype=float) for col in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), ORACLE_BLOCK):
            block = np.column_stack([col[lo:lo + ORACLE_BLOCK]
                                     for col in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def assert_same_bytes(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(tmp_path / "got.csv", header, columns)
    oracle_write_csv(tmp_path / "want.csv", header, columns)
    got = (tmp_path / "got.csv").read_bytes()
    want = (tmp_path / "want.csv").read_bytes()
    if got != want:  # name the first differing line, not two 8 MB strings
        bad = next((g, w) for g, w in zip(got.splitlines(), want.splitlines())
                   if g != w)
        pytest.fail(f"kernel wrote {bad[0]!r}, %.17g writes {bad[1]!r}")


def _neighbours(v, ulps):
    """v and its neighbours up to ``ulps`` units in the last place away."""
    out = [v]
    for direction in (np.inf, -np.inf):
        u = v
        for _ in range(ulps):
            u = np.nextafter(u, direction)
            out.append(u)
    return out


EDGES = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
    5e-324, 2.2250738585072014e-308, np.finfo(float).max,
    9.99999999999999999e-5,  # 18 nines: rounds up to the power of ten
    1e-14,  # the one power of ten whose double %.17g rounds up to it
    0.5, 100.0, 1234567890123456.5, 1e15 + 0.5, 9007199254740993.0,
    1e-28, 1e-29, 9.9999999999999995e-08,
    # exact ties at the 17th digit, which %.17g rounds half to even
    1e15 + 0.25, 1e15 + 0.75, 2.0 ** 50 + 0.75, 1e14 + 0.125, 1e14 + 0.375,
    123456789012345.625,
]
EDGES += [v for p in range(-30, 20) for v in _neighbours(float(f"1e{p}"), 2)]
# where %.17g switches between fixed and exponent notation
EDGES += [v for x in (1e-5, 1e-4, 1e16, 1e17) for v in _neighbours(x, 40)]
EDGES += [-v for v in EDGES]


@pytest.mark.parametrize("n_cols", [1, 3, 4])
def test_pinned_edge_values(tmp_path, n_cols):
    values = np.array(EDGES)
    rows = -(-values.size // n_cols)
    values = np.resize(values, rows * n_cols)
    assert_same_bytes(tmp_path, list(values.reshape(n_cols, rows)))


def test_every_exponent_and_digit_count(tmp_path):
    # the doubles nearest m*10**e for up to three-digit m: about one in six
    # prints with at most three digits, so every layout of every decimal
    # exponent, with and without a point, comes up
    values = [s * float(f"{m}e{e}") for e in range(-30, 18)
              for m in range(1, 1000) for s in (1.0, -1.0)]
    assert_same_bytes(tmp_path, [values, values[::-1]])


def _significant(v):
    """(significant digits, decimal exponent) of v as %.17g writes it."""
    mantissa, exponent = ("%.16e" % v).split("e")
    return len(mantissa.replace(".", "").rstrip("0")), int(exponent)


def _fast_values():
    """For each decimal exponent -28..15 and digit count 1..17, the first
    double printed with them, if one of the first 300 candidates is (a few
    pairs, such as one digit at 1e-5, have none)."""
    found = (next((v for m in range(10 ** (d - 1), 10 ** (d - 1) + 300)
                   for v in [float(f"{m}e{e - d + 1}")]
                   if _significant(v) == (d, e)), None)
             for e in range(-28, 16) for d in range(1, 18))
    return [v for v in found if v is not None]


# one of each kind the fast path hands to %.17g; the first is the longest
# field %.17g writes, 24 bytes
FALLBACKS = [-2.2250738585072014e-308, 0.0, -0.0, np.nan, np.inf, -np.inf,
             5e-324, 1e16, 1e15 + 0.25]


@pytest.mark.parametrize("n_cols", [1, 2, 3, 4])
def test_fallback_values_beside_fast_values(tmp_path, n_cols):
    fast = _fast_values()
    assert len(fast) > 700
    values = np.array(fast + [-v for v in fast])
    values = np.resize(values, (-(-values.size // n_cols), n_cols))
    # every fallback value in every column, two rows apart, among fast ones
    for i, (v, col) in enumerate((v, c) for v in FALLBACKS
                                 for c in range(n_cols)):
        values[2 * i, col] = v
    assert_same_bytes(tmp_path, list(values.T))


def test_several_files_in_one_process(tmp_path):
    # nothing the kernel keeps between calls may depend on the last shape
    rng = np.random.default_rng(7)
    for n_cols in (3, 4, 3):
        values = rng.choice([-1.0, 1.0], (n_cols, _CSV_BLOCK + 1)) * (
            10.0 ** rng.uniform(-30, 18, (n_cols, _CSV_BLOCK + 1)))
        values[:, ::97] = 0.0
        assert_same_bytes(tmp_path, list(values))


def _from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


VALUES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@given(pool=st.lists(VALUES, min_size=1, max_size=64),
       n_rows=st.sampled_from([0, 1, _CSV_BLOCK - 1, _CSV_BLOCK,
                               _CSV_BLOCK + 1]),
       n_cols=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_same_bytes_as_percent_formatting(tmp_path_factory, pool, n_rows,
                                          n_cols, seed):
    # the drawn values, raw bit patterns and a log-uniform spread over the
    # fast path's range, shuffled together
    rng = np.random.default_rng(seed)
    size = n_rows * n_cols
    third = -(-size // 3)
    values = np.concatenate([
        np.resize(np.array(pool), third),
        rng.integers(0, 2 ** 64, third, dtype=np.uint64).view(np.float64),
        rng.choice([-1.0, 1.0], third) * 10.0 ** rng.uniform(-30, 18, third),
    ])[:size]
    rng.shuffle(values)
    assert_same_bytes(tmp_path_factory.mktemp("csv"),
                      list(values.reshape(n_cols, n_rows)))
