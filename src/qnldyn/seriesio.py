"""File formats: series CSV, analysis outputs, recurrence bitmaps.

The series format is one float per line at 17 significant digits,
preceded by `# key=value` header lines carrying the resolved run
metadata (dt included), so a file is reproducible and re-loadable on
its own.  All writes go to a temp file in the target directory and are
renamed into place.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .series import TimeSeries

_FLOAT_FMT = "%.17g"

#: Recurrence pairs formatted or packed per block by the recurrence writers.
_PAIR_BLOCK = 1 << 16

#: Bytes of series rows read and parsed per numpy call by read_series.
_READ_CHUNK = 1 << 20


def _atomic_write(path: str, *chunks) -> None:
    """Write bytes-like chunks in order to a temp file, then rename it."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_lines(metadata: dict) -> list[str]:
    lines = []
    for key, value in metadata.items():
        if isinstance(value, float):
            value = _FLOAT_FMT % value
        lines.append(f"# {key}={value}")
    return lines


def write_series(path: str, series: TimeSeries, metadata: dict | None = None) -> None:
    """Series CSV: metadata header, then one value per line."""
    meta = {"dt": float(series.dt)}
    for key, value in series.origin.items():
        meta.setdefault(str(key), value)
    if metadata:
        meta.update(metadata)
    lines = _header_lines(meta)
    lines.extend(_FLOAT_FMT % v for v in series.values)
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def _parse_rows(path: str, lines: list[bytes], first_lineno: int) -> np.ndarray:
    """The numbers on the non-blank lines; a bad one fails with its line number."""
    try:
        return np.array(list(filter(bytes.strip, lines)), dtype=float)
    except ValueError:
        for lineno, raw in enumerate(lines, start=first_lineno):
            line = raw.strip()
            try:
                if line:
                    float(line)
            except ValueError:
                text = line.decode("utf-8", errors="replace")
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
        raise


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
            key, eq, value = line[1:].decode("utf-8").partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        for lines in iter(lambda: fh.readlines(_READ_CHUNK), []):
            parts.append(_parse_rows(path, lines, lineno + 1))
            lineno += len(lines)
    if "dt" not in meta:
        raise ValueError(f"{path}: header lacks the required dt key")
    try:
        dt = float(meta["dt"])
    except ValueError:
        raise ValueError(f"{path}: dt is not a number: {meta['dt']!r}") from None
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
    if metadata:
        meta.update(metadata)
    lines = _header_lines(meta)
    lines.append("# columns=tau,count")
    lines.extend(f"{_FLOAT_FMT % t},{c}" for t, c in zip(taus, counts))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def _pair_blocks(rec):
    """Yield `i,j` rows as uint8 arrays, _PAIR_BLOCK pairs at a time.

    Each index is looked up in a table of NUL-padded decimal strings, the
    row is laid out at fixed width, and the NUL padding is dropped.
    """
    width = len(str(rec.n_points - 1))
    digits = np.arange(rec.n_points).astype(f"S{width}").view(np.uint8)
    digits = digits.reshape(rec.n_points, width)
    for lo in range(0, rec.n_pairs, _PAIR_BLOCK):
        ii = rec.ii[lo : lo + _PAIR_BLOCK]
        jj = rec.jj[lo : lo + _PAIR_BLOCK]
        rows = np.empty((ii.size, 2 * width + 2), dtype=np.uint8)
        rows[:, :width] = digits[ii]
        rows[:, width] = ord(",")
        rows[:, width + 1 : -1] = digits[jj]
        rows[:, -1] = ord("\n")
        yield rows[rows != 0]


def write_recurrence_pairs(path: str, rec, metadata: dict | None = None) -> None:
    """Sparse recurrence pairs (i < j), one `i,j` row per pair."""
    meta = {
        "n_points": int(rec.n_points),
        "epsilon": float(rec.epsilon),
        "window_start": int(rec.window_start),
        "n_pairs": int(rec.n_pairs),
        "recurrence_rate": float(rec.recurrence_rate()),
    }
    if metadata:
        meta.update(metadata)
    lines = _header_lines(meta)
    lines.append("# columns=i,j")
    header = ("\n".join(lines) + "\n").encode()
    _atomic_write(path, header, *_pair_blocks(rec))


def write_recurrence_bitmap(path: str, rec) -> None:
    """Recurrence plot as a packed-bit PBM (P4), origin at lower-left.

    Row 0 of the file is the top row of the image, so pixel (i, j) of
    the plot (i rightward, j upward) lands at file row n-1-j.  Bits are
    set straight from the pair list, each pair and its mirror, then the
    diagonal, so memory stays at the n*ceil(n/8) bytes of the image.
    """
    n = rec.n_points
    row_bytes = (n + 7) // 8
    image = np.zeros(n * row_bytes, dtype=np.uint8)

    def set_pixels(cols, rows):
        at = (n - 1 - rows) * row_bytes + (cols >> 3)
        np.bitwise_or.at(image, at, (0x80 >> (cols & 7)).astype(np.uint8))

    for lo in range(0, rec.n_pairs, _PAIR_BLOCK):
        ii = rec.ii[lo : lo + _PAIR_BLOCK]
        jj = rec.jj[lo : lo + _PAIR_BLOCK]
        set_pixels(ii, jj)
        set_pixels(jj, ii)
    diagonal = np.arange(n, dtype=np.int64)
    set_pixels(diagonal, diagonal)
    _atomic_write(path, f"P4\n{n} {n}\n".encode(), image)


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
    if metadata:
        meta.update(metadata)
    lines = _header_lines(meta)
    lines.append("# columns=t,S")
    for t, s in zip(curve.t_offsets, curve.s_values):
        lines.append(f"{_FLOAT_FMT % (t * curve.dt)},{_FLOAT_FMT % s}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode())
