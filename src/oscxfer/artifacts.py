"""Every byte the package writes or reads, and which of them must repeat.

The CLI's tables are CSV with a header line, each value written as
``"%.17g" % v`` would write it, by the numpy kernel of :func:`_write_csv`,
so oracle comparisons keep all digits and profiles round-trip exactly.  Its
reports and ``config.json`` are standard JSON (:func:`_write_json`), and a
``file:`` profile is read back by :func:`_profile_from_file`.  The science
artifacts (:func:`science_artifacts`) are the files whose bytes one input
must give again: every table and report, and ``config.json`` but for its
``out_dir``.
"""

from __future__ import annotations

import json
import warnings
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .types import CouplingProfile, TimeGrid


class ConfigError(ValueError):
    """Unusable run configuration (bad flag value, bad file, bad combination)."""


_CSV_BLOCK = 1024  # rows formatted as one array; temporaries stay below 1 MB

# Tables of the %.17g kernel.  Those with a row per decimal exponent k cover
# k = -29..16, one past the fast path's range on each side because log10 can
# miss by one; a negative k indexes from the end, so k itself is the index.
_K = range(-29, 17)


def _by_k(rows) -> np.ndarray:
    """Rows in the order of ``_K`` as a table indexed by k (by 18k + n_sig
    for 18 rows per k, one for each count n_sig of significant digits)."""
    return np.roll(np.asarray(rows), -29 * len(rows) // 46, axis=0)


def _split(a):
    """Dekker's split of ``a`` into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**(16 - k) = _POW + _POW_TAIL to 2**-106 (the tail is 0 up to 10**22)
_POW = _by_k([float(10 ** (16 - k)) for k in _K])
_POW_TAIL = _by_k([float(10 ** (16 - k) - int(float(10 ** (16 - k))))
                   for k in _K])
_POW_HI, _POW_LO = _split(_POW)
# _GROUP[g]: the four digits of g < 10**4, one per byte, first digit lowest
_D = np.ix_(*[np.arange(10, dtype=np.uint64)] * 4)
_GROUP = (_D[0] | _D[1] << 8 | _D[2] << 16 | _D[3] << 24).ravel()
# _SIG[w][g]: with g as digit group w (digits 4w+1..4w+4 of the 17), the
# number of digits up to its last nonzero one, 0 if g = 0 (1 for w = 0)
_SIG4 = np.maximum(np.maximum(_D[0] > 0, 2 * (_D[1] > 0)), np.maximum(
    3 * (_D[2] > 0), 4 * (_D[3] > 0))).ravel().astype(np.int8)
_SIG = [np.where(_SIG4 > 0, _SIG4 + (4 * w + 1), w == 0) for w in range(4)]


def _layout(k: int) -> tuple[int, int]:
    """``(q, t)`` for exponent k: digits 0..q-1 stay at bytes 1..q of the
    field, and the rest move t bytes up, past the point or '0.000'."""
    return (k + 1, 1) if k >= 0 else (0, 1 - k) if k >= -4 else (1, 1)


def _patterns(k: int) -> list[bytes]:
    """The 24 bytes xor-ed into the moved digits of a field with exponent
    k, for n_sig = 0..17: '0' over each digit kept, the point or '0.000',
    'e-XX' and ','.  Trailing zeros are kept only before the point."""
    q, t = _layout(k)
    if t > 1:                  # 0.000ddd
        body, ends = b"0." + b"0" * (15 + t), [n + t for n in range(18)]
    else:                      # ddd.ddd or d.ddde-XX
        body = b"0" * q + b"." + b"0" * (17 - q)
        ends = [n + 1 if n > q else q for n in range(18)]
    tail = b"e-%02d," % -k if k < -4 else b","
    return [b"\0" + body[:end].ljust(23 - len(tail), b"\0") + tail
            for end in ends]


def _words(fields) -> list[np.ndarray]:
    """Fields of 24 bytes as their three little-endian words, word by word."""
    words = np.frombuffer(b"".join(fields), "<u8").astype(np.uint64)
    return list(_by_k(words.reshape(-1, 3)).T.copy())


_HEAD = _words(b"\0" + b"\xff" * q + bytes(23 - q)
               for q, _ in map(_layout, _K))
_SHIFT = _by_k([np.uint64(8 * t) for _, t in map(_layout, _K)])
_PATTERN = _words(f for k in _K for f in _patterns(k))


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(fast, n, k)``: where the fast path decides ``x``, its 17 digits as
    the integer 10**16 <= n < 10**17 and its decimal exponent k; see
    :func:`_write_csv`.  Its float temporaries die on return."""
    ax = np.abs(x)
    fast = (ax >= 1e-28) & (ax < 1e16)  # False for NaN
    a = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    p = a * _POW[k]            # Dekker: p + e = a * _POW[k] exactly
    a_hi, a_lo = _split(a)
    pow_hi, pow_lo = _POW_HI[k], _POW_LO[k]
    e = (((a_hi * pow_hi - p) + a_hi * pow_lo + a_lo * pow_hi)
         + a_lo * pow_lo)
    e += a * _POW_TAIL[k]
    hi = p + e                 # fast two-sum: hi + lo = p + e exactly
    lo = e - (hi - p)
    floor_lo = np.floor(lo)
    half = lo - floor_lo - 0.5
    n = hi.astype(np.int64) + floor_lo.astype(np.int64)  # floor(hi + lo)
    # 17 digits after rounding (k can miss by one near powers of ten), and
    # a fraction that the error bound cannot carry across 1/2
    fast &= (n >= 10 ** 16) & (np.abs(half) > 1e-6)
    n += half > 0
    fast &= n < 10 ** 17
    return fast, n, k


def _digits(n: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The 17 digits of each n, one per byte at bytes 1..17 of three words,
    and the number of digits up to the last nonzero one."""
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    groups = []
    for e in (12, 8, 4):
        groups.append(n // 10 ** e)
        n -= groups[-1] * 10 ** e
    groups.append(n)
    n_sig = _SIG[0][groups[0]]
    for w in (1, 2, 3):
        np.maximum(n_sig, _SIG[w][groups[w]], out=n_sig)
    h1 = _GROUP[groups[0]] | _GROUP[groups[1]] << 32
    h2 = _GROUP[groups[2]] | _GROUP[groups[3]] << 32
    return [lead.view(np.uint64) << 8 | h1 << 16, h1 >> 48 | h2 << 16,
            h2 >> 48], n_sig


def _format_rows(block: np.ndarray) -> bytearray:
    """The CSV rows of a (rows, cols) float array, as ``%.17g`` writes them;
    see :func:`_write_csv`."""
    cols = block.shape[1]
    x = block.ravel()
    fast, n, k = _decimal(x)
    words, n_sig = _digits(n)
    row = k * 18 + n_sig
    shift = _SHIFT[k]
    buf = bytearray(24 * x.size)
    out = np.frombuffer(buf, "<u8").reshape(-1, 3)  # stored little-endian
    back = 64 - shift
    for w, tail in enumerate(words):
        # the head stays; the tail moves up, and its top carries over
        head = tail & _HEAD[w][k]
        tail ^= head
        if w:
            head |= carry
        if w < 2:
            carry = tail >> back
        tail <<= shift
        head |= tail
        np.bitwise_xor(head, _PATTERN[w][row], out=out[:, w])
    out[:, 0] |= (x.view(np.uint64) >> 63) * ord("-")
    out[cols - 1::cols, 2] ^= (ord(",") ^ ord("\n")) << 56
    slow = np.flatnonzero(~fast)
    if slow.size:  # %.17g formats these, in place of a marker byte
        out[slow, :2] = 1, 0
        out[slow, 2] &= 0xFF << 56
        return buf.translate(None, b"\0").replace(b"\1", b"%.17g") % tuple(
            x[slow].tolist())
    return buf.translate(None, b"\0")


def _write_csv(path: Path, header: Sequence[str],
               columns: Sequence[Sequence[float]]) -> None:
    """Write equal-length columns as CSV rows.

    Every value is written as ``"%.17g" % v`` would write it (17
    significant digits, correctly rounded), so oracle comparisons keep all
    digits and profiles round-trip exactly; NaN is written as ``nan``.
    The rows are formatted by a numpy kernel, one block of rows at a time,
    and each block is written to ``path`` as soon as it is done.

    The kernel takes finite values with 1e-28 <= |v| < 1e16.  With
    k = floor(log10|v|) and p = 16 - k it forms |v|*10**p as an unevaluated
    sum hi + lo of doubles, from one Dekker product by the double-double
    10**p = P + P' (P' = 0 for p <= 22, |10**p - P - P'| <= 2**-106 P):
    |v|*P is exact, and |v|*P' (at most 2**-53 |v|P <= 11.2) and its sum
    with the product's error (at most 8) round once each.  Below 1e17 the
    error is at most 1.3e-15 + 1.3e-15 + 2.2e-15 < 5e-15, 2e8 times inside
    the 1e-6 window below.  A value is kept only if 10**16 <= hi + lo <
    10**17 - 1/2 and the fraction of lo is more than 1e-6 from 1/2, so the
    error cannot move the rounding; then hi + round(lo) are the 17 digits.
    Every other value (0, -0, NaN, +-inf, subnormals, |v| >= 1e16, a k that
    log10 got wrong, near-ties) is formatted by ``%.17g`` itself.

    A field is 24 bytes, three little-endian uint64 words: the sign, the
    value in bytes 1..22 and the separator.  The digits, one per byte, move
    past the point or '0.000' by a shift of the words; a table by (k,
    significant digits) xors in '0' over the digits kept, the point, the
    prefix, 'e-XX' and ',', so trailing zeros stay NUL bytes, which
    ``translate`` drops.  The words are stored through a '<u8' array, so a
    big-endian host byte-swaps them in that one store.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, [np.asarray(col, dtype=float) for col in columns])


def _write_rows(fh, columns: Sequence[np.ndarray]) -> None:
    """Append equal-length float columns to the open file ``fh`` as rows of
    :func:`_write_csv`, one block of rows at a time."""
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        fh.write(_format_rows(np.column_stack(
            [col[lo:lo + _CSV_BLOCK] for col in columns])))


def _write_json(path: Path, payload: dict) -> None:
    """Standard JSON only: a NaN or infinity raises before the file opens."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _profile_from_file(path: str, grid: TimeGrid) -> CouplingProfile:
    """The profile in columns t and gamma1 of a CSV file with a header
    line; later columns are not parsed."""
    read = partial(np.loadtxt, path, delimiter=",", skiprows=1, ndmin=2)
    try:
        with warnings.catch_warnings():  # numpy's on no rows: refused below
            warnings.simplefilter("ignore", UserWarning)
            data = read(usecols=(0, 1))
    except OSError as exc:
        raise ConfigError(f"cannot read profile file: {exc}") from exc
    except ValueError as exc:
        try:  # a one-column file fails the usecols
            narrow = read(max_rows=1).shape[1] < 2
        except ValueError:
            narrow = False
        if narrow:
            raise ConfigError(
                "profile file needs columns: t, gamma1") from None
        raise ConfigError(f"cannot parse profile file {path!r}: {exc}") from exc
    if data.shape[0] != grid.n_nodes:
        raise ConfigError(
            f"profile file has {data.shape[0]} rows; the grid has "
            f"{grid.n_nodes} nodes (t=0 .. T inclusive)"
        )
    nodes = grid.nodes()
    if not np.allclose(data[:, 0], nodes, rtol=0, atol=1e-9 * max(1.0, grid.t_end)):
        raise ConfigError("profile file times do not match the run grid")
    return CouplingProfile.sampled(grid, data[:, 1])


def science_artifacts(out: Path) -> dict:
    """The science artifacts under ``out``, keyed by their relative path:
    the bytes of each table (``*.csv``) and report (``*report.json``,
    ``budget.json``), and ``config.json`` as a dict without ``out_dir``.
    Every other file, ``telemetry.json`` among them, is left out."""
    got = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = str(path.relative_to(out))
        if path.name == "config.json":
            got[name] = {**json.loads(path.read_text()), "out_dir": None}
        elif (path.suffix == ".csv" or path.name.endswith("report.json")
              or path.name == "budget.json"):
            got[name] = path.read_bytes()
    return got
