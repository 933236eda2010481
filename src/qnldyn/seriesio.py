"""File formats: series CSV, analysis outputs, recurrence bitmaps.

The series format is one float per line at 17 significant digits,
preceded by `# key=value` header lines carrying the resolved run
metadata (dt included), so a file is reproducible and re-loadable on
its own.  All writes go to a temp file in the target directory and are
renamed into place.

Float columns are converted a block of rows per numpy pass, exactly:
each row written is `"%.17g" % x` byte for byte, and each row read is
the double `float(row)` gives, both by double-double arithmetic against
10**k held as hi + lo doubles.  Rows near a rounding tie or midpoint,
and rows of other shapes, go through `"%.17g"` or `float()` themselves.
A series read needs a finite positive dt and finite rows; a bad row
fails with its line number.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import tempfile

import numpy as np

from .errors import OutputError
from .series import TimeSeries

_FLOAT_FMT = "%.17g"

#: Recurrence pairs formatted or packed per block by the recurrence writers.
_PAIR_BLOCK = 1 << 16

#: Bytes of series rows read and parsed per numpy call by read_series.
_READ_CHUNK = 1 << 18

_FORMAT_BLOCK = 1 << 13  # floats formatted per numpy call by the float-column writers
_ROW = 24  # longest row read in place; "-0.00012345678901234567" has 23 bytes
_POW_MIN = -260  # 10**k is tabled for k in [_POW_MIN, 280]


@functools.cache
def _tables():
    """Built on first use: 10**k as hi + lo doubles and hi's upper 26 bits, "0000".."9999"
    then without trailing zeros, `e±XX`, and masks of the last j of _ROW bytes."""
    ks = range(_POW_MIN, 281)
    hi, lo = np.empty((2, len(ks)))
    for i, k in enumerate(ks):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        p, q = (num / den).as_integer_ratio()  # int / int rounds correctly
        hi[i], lo[i] = p / q, (num * q - p * den) / (den * q)
    four = [b"%04d" % i for i in range(10000)]
    four = np.array(four + [g.rstrip(b"0") for g in four], dtype="S4")
    exps = np.array([b"e%+03d" % k for k in ks], dtype="S5")
    masks = np.tri(_ROW + 1, _ROW, -1, dtype=np.uint8)[:, ::-1] * np.uint8(255)
    t = hi * 134217729.0
    return hi, lo, t - (t - hi), four, exps, masks.view(f"V{_ROW}").ravel()


def _times_pow10(a, k, a_low=0.0):
    """(a + a_low) * 10**k as p + e: Dekker's exact a * hi plus the small terms."""
    hi, lo, hi_high = _tables()[:3]
    b, bh, c = hi[k - _POW_MIN], hi_high[k - _POW_MIN], lo[k - _POW_MIN]
    t = a * 134217729.0  # 2**27 + 1 splits a into 26-bit halves
    ah = t - (t - a)
    al, bl = a - ah, b - bh
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * c + a_low * b


def _float_rows(values, tail: bytes) -> np.ndarray:
    """`b"%.17g" % x + tail` per value: rows of a uint8 array, padded with NULs."""
    hi, lo, _, four, exps, _ = _tables()
    x = np.asarray(values, dtype=float)
    n, a = x.size, np.abs(x)
    fast = (a >= 1e-250) & (a < 1e250)
    a[~fast] = 1.0
    # decimal exponent X, 10**X <= a < 10**(X+1): log10's guess, corrected exactly
    X = np.floor(np.log10(a)).astype(np.int64)
    for step in (0, 1):
        h, l = hi[X + step - _POW_MIN], lo[X + step - _POW_MIN]
        X += ((a > h) | ((a == h) & (l <= 0))) - (1 - step)
    # rows sorted by %g's layout: X for fixed notation, -4 <= X < 17, else 17 (d.ddde±XX)
    kind = np.where((X >= -4) & (X < 17), X, 17).astype(np.int8)
    order = np.argsort(kind, kind="stable")
    x, a, X, fast, counts = x[order], a[order], X[order], fast[order], np.bincount(kind + 4)
    # D = round(a * 10**(16-X)); near a tie or at 10**17 (one digit more), "%.17g" decides
    ph, pl = _times_pow10(a, 16 - X)
    r = np.rint(pl)
    D = ph.astype(np.int64) + r.astype(np.int64)
    fast &= (np.abs(np.abs(pl - r) - 0.5) > 1e-6) & (D < 10**17)
    g = np.empty((n, 5), np.int64)  # the lead digit, then four groups of four
    g[:, 0], rest = np.divmod(D, 10**16)
    h8, l8 = np.divmod(rest, 10**8)
    g[:, 1], g[:, 2] = np.divmod(h8, 10**4)
    g[:, 3], g[:, 4] = np.divmod(l8, 10**4)
    # a group followed by zero groups only is looked up with its zeros dropped
    g[:, 1] += ((l8 == 0) & (g[:, 2] == 0)) * 10**4
    g[:, 2] += (l8 == 0) * 10**4
    g[:, 3] += (g[:, 4] == 0) * 10**4
    g[:, 4] += 10**4
    digits = four[g].view(np.uint8).reshape(n, 20)[:, 3:]
    rows = np.zeros((n, 24 + len(tail)), np.uint8)
    rows[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    ends = np.cumsum(counts)
    for code in np.flatnonzero(counts).tolist():
        part = slice(ends[code] - counts[code], ends[code])
        d, row, K = digits[part], rows[part], code - 4
        if K < 0:  # "0." and -K-1 zeros, then all 17 digits
            row[:, 1 : 2 - K] = ord("0")
            row[:, 2] = ord(".")
            row[:, 2 - K : 19 - K] = d
            continue
        if K == 17:  # d.ddde±XX
            K = 0
            row[:, 19:24] = exps[X[part] - _POW_MIN].view(np.uint8).reshape(-1, 5)
        row[:, 1 : K + 2] = np.maximum(d[:, : K + 1], ord("0"))  # integer digits keep zeros
        if K < 16:  # no point when every fraction digit was a dropped zero
            row[:, K + 2] = (d[:, K + 1] != 0) * np.uint8(ord("."))
            row[:, K + 3 : 19] = d[:, K + 1 :]
    rows[:, 24:] = np.frombuffer(tail, np.uint8)
    slow = np.flatnonzero(~fast)
    text = np.array([b"%.17g" % v + tail for v in x[slow].tolist()], dtype=f"S{rows.shape[1]}")
    rows[slow] = text.view(np.uint8).reshape(-1, rows.shape[1])
    rows.view(f"V{rows.shape[1]}")[order] = rows.view(f"V{rows.shape[1]}").copy()
    return rows


def _text(rows: np.ndarray) -> bytes:
    """The bytes of rows without their NUL padding."""
    return rows.tobytes().translate(None, b"\0")


def _atomic_write(path: str, chunks) -> None:
    """Write the bytes-like chunks an iterable yields to a temp file; rename it.

    Any OS failure leaves no temp file and raises OutputError naming path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _header(meta: dict, metadata: dict | None = None, columns: str | None = None) -> bytes:
    """`# key=value` lines of meta updated by metadata, floats at 17 digits,
    then `# columns=...` if columns is given."""
    lines = [f"# {key}={_FLOAT_FMT % value if isinstance(value, float) else value}\n"
             for key, value in {**meta, **(metadata or {})}.items()]
    if columns is not None:
        lines.append(f"# columns={columns}\n")
    return "".join(lines).encode()


def write_series(path: str, series: TimeSeries) -> None:
    """Series CSV: dt and the series origin as header, then one value per line."""
    meta = {"dt": float(series.dt)}
    for key, value in series.origin.items():
        meta.setdefault(str(key), value)
    values = series.values
    rows = (_text(_float_rows(values[i : i + _FORMAT_BLOCK], b"\n"))
            for i in range(0, values.size, _FORMAT_BLOCK))
    _atomic_write(path, itertools.chain([_header(meta)], rows))


def _parse_chunk(path: str, data: bytes, first_lineno: int) -> tuple[np.ndarray, int]:
    """The numbers in data's rows (it ends with a newline), and its newline count.

    Rows of up to _ROW bytes of `[-]digits[.digits]` are parsed in place,
    empty rows dropped, others parsed by `float()` in one list.  If that
    fails or gives nan or inf, only those rows are read again one at a time:
    a blank-only row is dropped as a blank line, and a row that is not a
    finite number fails with its line number."""
    masks = _tables()[5]
    a = np.frombuffer(data, np.uint8)
    nl = np.flatnonzero(a == ord("\n"))
    start = np.concatenate(([0], nl[:-1] + 1))
    n, length, neg = nl.size, nl - start, a[start] == ord("-")
    slow = (length > _ROW) | (neg & (length == 1))  # long or "-"
    # each row's last _ROW bytes as digit values: the bytes before the row
    # and its leading "-" masked out, its point zeroed
    windows = np.ndarray((a.size + 1,), f"V{_ROW}", b"0" * _ROW + data, strides=(1,))
    digit = windows[nl].view(np.uint8).reshape(n, _ROW) - np.uint8(ord("0"))
    digit &= masks[np.minimum(length - neg, _ROW)].view(np.uint8).reshape(n, _ROW)
    dots = np.flatnonzero(a == ord("."))
    one_each = dots.size == n and (dots > start).all() and (dots < nl).all()
    at = np.arange(n) if one_each else np.searchsorted(nl, dots)
    frac = np.zeros(n, np.int64)
    frac[at] = np.minimum(nl[at] - dots - 1, _ROW - 1)
    slow[at] |= frac[at] == 0  # "5."
    digit[at, _ROW - 1 - frac[at]] = 0
    # eight digits per word (SWAR), three words per row; any other byte left (a
    # second point, an inner "-", e, +, blanks) sets a high bit of w | (w + 0x76...)
    w = digit.view("<u8")
    bad = (w | (w + np.uint64(0x7676767676767676))) & np.uint64(0x8080808080808080)
    slow |= (bad[:, 0] | bad[:, 1] | bad[:, 2]) != 0
    w = (w * np.uint64(10) + (w >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    w = (w * np.uint64(100) + (w >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    w = (w * np.uint64(10000) + (w >> np.uint64(32))) & np.uint64(0x00000000FFFFFFFF)
    w = w.astype(np.int64)
    slow |= w[:, 0] >= 100  # more than 18 significant digits
    V = (w[:, 0] * 10**8 + w[:, 1]) * 10**8 + w[:, 2]  # the point read as a 0 digit
    F = V % (10 ** np.arange(19))[np.minimum(frac, 18)]
    D = np.where(frac > 0, (V - F) // 10 + F, V)
    # D * 10**-frac rounded by s = p + e; TwoSum's error in half-ulps of s is 1 at
    # a midpoint (1/2 below a power of two; s = 0 takes 2**-1022's ulp), else float()
    dh = D.astype(float)
    p, e = _times_pow10(dh, -frac, (D - dh.astype(np.int64)).astype(float))
    s = p + e
    scale = np.maximum(s.view(np.int64) & 0x7FF0000000000000, 0x0010000000000000)
    r = np.abs(e - (s - p)) * 2.0**53 / scale.view(float)
    slow |= (np.abs(r - 1.0) <= 2.0**-40) | (np.abs(r - 0.5) <= 2.0**-40)
    values = np.where(neg, -s, s)
    try:
        values[slow] = [float(data[i:j]) for i, j in zip(start[slow], nl[slow])]
    except ValueError:
        values[slow] = np.nan  # so they are read again below
    if not np.isfinite(values).all():  # float()'s rows again, one at a time
        for r in np.flatnonzero(slow).tolist():
            row = data[start[r] : nl[r]].strip()
            length[r] = len(row)  # a blank-only row is a blank line
            try:
                values[r] = float(row) if row else 0.0
            except ValueError:
                error = "not a number"
            else:
                error = None if math.isfinite(values[r]) else "not a finite number"
            if error:
                text = row.decode("utf-8", errors="replace")
                raise ValueError(f"{path}:{first_lineno + r}: {error}: {text!r}")
    return values[length > 0], n


def _row_chunks(fh):
    """Whole rows, about _READ_CHUNK bytes at a time (or none); a last row gains its newline."""
    rest = b""
    for chunk in iter(lambda: fh.read(_READ_CHUNK), b""):
        rows, newline, rest = (rest + chunk).rpartition(b"\n")
        yield rows + newline
    yield rest and rest + b"\n"


def read_series(path: str) -> TimeSeries:
    """Parse the series CSV; malformed rows fail with their line number.

    The header is the run of `#` and blank lines at the top of the file;
    after it, every non-blank line holds one number.  Rows are parsed
    _READ_CHUNK bytes at a time, so no Python object per row outlives
    its chunk.
    """
    meta: dict[str, str] = {}
    parts = []
    lineno = 0
    with open(path, "rb") as fh:
        for raw in iter(fh.readline, b""):
            line = raw.strip()
            if line and not line.startswith(b"#"):
                fh.seek(-len(raw), os.SEEK_CUR)
                break
            lineno += 1
            try:
                key, eq, value = line[1:].decode("utf-8").partition("=")
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: header line is not UTF-8: {line!r}") from None
            if eq:
                meta[key.strip()] = value.strip()
        for chunk in filter(None, _row_chunks(fh)):
            values, rows = _parse_chunk(path, chunk, lineno + 1)
            parts.append(values)
            lineno += rows
    if "dt" not in meta:
        raise ValueError(f"{path}: header lacks the required dt key")
    try:
        dt = float(meta["dt"])
    except ValueError:
        raise ValueError(f"{path}: dt is not a number: {meta['dt']!r}") from None
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"{path}: dt must be finite and positive: {meta['dt']!r}")
    values = np.concatenate(parts or [np.empty(0)])
    if values.size < 2:
        raise ValueError(f"{path}: fewer than two data rows")
    origin: dict[str, object] = dict(meta)
    return TimeSeries(values, dt, origin=origin)


def write_f1_histogram(path: str, hist, metadata: dict | None = None) -> None:
    """Return-time histogram CSV: tau (samples), count; fit in the header."""
    times = np.asarray(hist.return_times)
    taus, counts = np.unique(times, return_counts=True)
    meta = {
        "cell_size": float(hist.cell_size),
        "n_returns": int(times.size),
        "mean_tau": float(hist.mean_tau),
        "mu_fit": float(hist.mu_fit),
        "mu_per_time": float(hist.mu_per_time),
        "fit_quality": "" if hist.fit_quality is None else float(hist.fit_quality),
        "quasi_periodic": hist.quasi_periodic,
        "insufficient": hist.insufficient,
        "occupied_bins": int(hist.occupied_bins),
    }
    counts = np.char.add(counts.astype("S20"), b"\n").view(np.uint8).reshape(-1, 21)
    rows = np.hstack((_float_rows(taus, b","), counts))
    _atomic_write(path, [_header(meta, metadata, "tau,count"), _text(rows)])


def _pair_blocks(rec):
    """Yield `i,j` rows, _PAIR_BLOCK pairs at a time.

    Each index is looked up in a table of NUL-padded decimal strings and the
    row is laid out at fixed width.  Pairs come sorted by i, with j > i, so
    in a block whose first i has the full width no index is padded: that
    block is yielded as the row array itself, the others without their NULs.
    """
    width = len(str(rec.n_points - 1))
    digits = np.arange(rec.n_points).astype(f"S{width}")
    row = np.dtype([("i", f"S{width}"), ("sep", "S1"), ("j", f"S{width}"), ("end", "S1")])
    for ii, jj in rec.index_blocks(_PAIR_BLOCK):
        rows = np.empty(ii.size, row)
        rows["i"], rows["sep"], rows["j"], rows["end"] = digits[ii], b",", digits[jj], b"\n"
        yield rows if ii[0] >= 10 ** (width - 1) else _text(rows)


def write_recurrence_pairs(path: str, rec, metadata: dict | None = None) -> None:
    """Sparse recurrence pairs (i < j), one `i,j` row per pair.

    Rows are formatted and written one _PAIR_BLOCK block at a time.
    """
    meta = {
        "n_points": int(rec.n_points),
        "epsilon": float(rec.epsilon),
        "window_start": int(rec.window_start),
        "n_pairs": int(rec.n_pairs),
        "recurrence_rate": float(rec.recurrence_rate()),
    }
    _atomic_write(path, itertools.chain([_header(meta, metadata, "i,j")], _pair_blocks(rec)))


def write_recurrence_bitmap(path: str, rec) -> None:
    """Recurrence plot as a packed-bit PBM (P4), origin at lower-left.

    Row 0 of the file is the top row of the image, so pixel (i, j) of
    the plot (i rightward, j upward) lands at file row n-1-j.  Bits are
    set from the pairs _PAIR_BLOCK at a time, each pair and its mirror,
    then the diagonal, so memory stays at the n*ceil(n/8) bytes of the
    image plus one block.  They are added, not OR-ed: the stored pairs are
    unique with i < j, their mirrors lie below the diagonal, so every pixel
    is set once, the bits added into a byte are distinct, and the sum is
    their OR without a carry.
    """
    n = rec.n_points
    row_bytes = (n + 7) // 8
    image = np.zeros(n * row_bytes, dtype=np.uint8)

    def set_pixels(cols, rows):
        at = (n - 1 - rows) * row_bytes + (cols >> 3)
        np.add.at(image, at, (0x80 >> (cols & 7)).astype(np.uint8))

    for ii, jj in rec.index_blocks(_PAIR_BLOCK):
        set_pixels(ii, jj)
        set_pixels(jj, ii)
    diagonal = np.arange(n, dtype=np.int64)
    set_pixels(diagonal, diagonal)
    _atomic_write(path, [f"P4\n{n} {n}\n".encode(), image])


def write_lyapunov_curve(path: str, curve, metadata: dict | None = None) -> None:
    """Divergence curve CSV: t (time units), S; fit results in header."""
    meta = {
        "epsilon": float(curve.epsilon),
        "m": int(curve.m),
        "delay": int(curve.delay),
        "theiler": int(curve.theiler),
        "dt": float(curve.dt),
        "n_references": int(curve.n_references),
    }
    if curve.lambda_max is not None:
        meta["lambda_max"] = float(curve.lambda_max)
    if curve.fit_window is not None:
        meta["fit_window"] = f"{curve.fit_window[0]}:{curve.fit_window[1]}"
        meta["fit_window_clamped"] = "true" if curve.fit_window_clamped else "false"
    rows = np.hstack((_float_rows(curve.t_offsets * curve.dt, b","),
                      _float_rows(curve.s_values, b"\n")))
    _atomic_write(path, [_header(meta, metadata, "t,S"), _text(rows)])
