"""Output checks for the chain steps, and the analysis digest.

Every check returns a list of problems (empty when the output is right).
The checks run outside the timed region and keep their memory below what
the chain itself used, so they move neither the timings nor the peak RSS.

The digest hashes only integer outputs: f1 (tau, count) rows, the
recurrence pair list, and each lyap curve's fit window and t offsets.
Two commits that keep counts and fit windows identical, as the roadmap
requires of any speed-up, give the same digest for the same seed.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os

import numpy as np

#: Largest allowed deviation of a series sample from the direct path.
SERIES_TOL = 1e-9

#: Samples per series compared against the direct single-time path.
SERIES_PROBES = 101

#: Curves per lyap scan: the CLI default grid of 3 m values x 3 radii.
LYAP_CURVES = 9


def _read(path: str) -> tuple[dict, bytes]:
    """Leading `# key=value` header pairs, and the data bytes after them."""
    with open(path, "rb") as fh:
        data = fh.read()
    meta = {}
    pos = 0
    while data.startswith(b"#", pos):
        end = data.index(b"\n", pos) + 1
        key, sep, value = data[pos + 1:end].decode().strip().partition("=")
        if sep:
            meta[key.strip()] = value.strip()
        pos = end
    return meta, data[pos:]


def _split(path: str) -> tuple[dict, list[bytes]]:
    """Header pairs and the data rows of a text output."""
    meta, data = _read(path)
    return meta, data.split()


def direct_values(cfg, times: np.ndarray) -> np.ndarray:
    """The observable of a RunConfig at each time, by single-time evolution."""
    from qnldyn import bjj, fock, kerr, morse

    p = cfg.params
    if cfg.system == "kerr":
        params = kerr.KerrParams(chi=float(p["chi"]),
                                 chi_prime=float(p["chi_prime_ratio"]) * float(p["chi"]))
        alpha = math.sqrt(float(p["alpha_sq"]))
        ell = int(p["ell"])
        state = fock.coherent_state(alpha) if ell == 1 else fock.superpose_coherent(alpha, ell)[0]
        if cfg.observable == "fidelity":
            return np.array([abs(fock.inner(state, kerr.evolve_kerr(state, params, t))) ** 2
                             for t in times])
        axis, order = kerr.parse_observable(cfg.observable)
        return np.array([fock.quadrature_moment(kerr.evolve_kerr(state, params, t), axis, order)
                         for t in times])
    if cfg.system == "bjj":
        n_atoms = int(p["n_atoms"])
        ops = bjj.build_bjj(bjj.BJJParams.from_u(n_atoms, float(p["u"])))
        state = bjj.make_initial(str(p["state"]), n_atoms)
        op = ops.operator(cfg.observable)
        vals = []
        for t in times:
            amps = bjj.evolve_bjj(state, ops, t).amplitudes
            vals.append(2.0 / n_atoms * np.vdot(amps, op @ amps).real)
        return np.array(vals)
    if cfg.system == "morse":
        params = morse.MORSE_PRESETS[str(p["preset"])]
        basis = morse.build_eigenbasis(params, morse.default_grid(params))
        state = morse.superpose_morse(float(p["alpha"]), int(p["ell"]), basis,
                                      n_prime=basis.n_states - 1)
        xmat = morse.position_matrix(basis)
        vals = []
        for t in times:
            c = morse.evolve_morse(state, t).coeffs
            vals.append(np.vdot(c, xmat @ c).real)
        return np.array(vals)
    raise ValueError(f"no direct path for system {cfg.system!r}")


def check_series(path: str, config_path: str) -> list[str]:
    """Row count, dt, finiteness, and an evenly spaced subsample against
    the direct single-time path to SERIES_TOL absolute."""
    from qnldyn.config import load_config

    cfg = load_config(config_path)
    meta, rows = _split(path)
    problems = []
    if len(rows) != cfg.n_samples:
        problems.append(f"{path}: {len(rows)} rows, expected {cfg.n_samples}")
        return problems
    if float(meta.get("dt", "nan")) != cfg.dt:
        problems.append(f"{path}: header dt={meta.get('dt')} != {cfg.dt!r}")
    values = np.array(rows, dtype=float)
    if not np.all(np.isfinite(values)):
        problems.append(f"{path}: non-finite values")
        return problems
    idx = np.linspace(0, cfg.n_samples - 1, SERIES_PROBES).astype(np.int64)
    times = cfg.t_start + cfg.dt * np.arange(cfg.n_samples)
    worst = float(np.max(np.abs(values[idx] - direct_values(cfg, times[idx]))))
    if not worst <= SERIES_TOL:
        problems.append(f"{path}: deviation {worst:.3e} from the direct path > {SERIES_TOL:g}")
    return problems


def check_f1(path: str) -> list[str]:
    meta, rows = _split(path)
    counts = [int(r.split(b",")[1]) for r in rows]
    n_returns = int(meta.get("n_returns", -1))
    if n_returns < 1 or sum(counts) != n_returns:
        return [f"{path}: counts sum to {sum(counts)}, header n_returns={n_returns}"]
    return []


def check_rp(prefix: str) -> list[str]:
    """Pair rows against the header; PBM size and popcount against the pairs."""
    meta, data = _read(prefix + ".pairs.csv")
    n = int(meta["n_points"])
    n_pairs = int(meta["n_pairs"])
    n_rows = data.count(b"\n")
    problems = []
    if n_rows != n_pairs:
        problems.append(f"{prefix}.pairs.csv: {n_rows} rows, header n_pairs={n_pairs}")
    header = f"P4\n{n} {n}\n".encode()
    with open(prefix + ".pbm", "rb") as fh:
        if fh.read(len(header)) != header:
            return problems + [f"{prefix}.pbm: header is not {header!r}"]
        payload = np.fromfile(fh, dtype=np.uint8)
    if payload.size != n * ((n + 7) // 8):
        problems.append(f"{prefix}.pbm: {payload.size} payload bytes, "
                        f"expected {n * ((n + 7) // 8)}")
    ones = int(np.bitwise_count(payload).sum(dtype=np.int64))
    if ones != 2 * n_pairs + n:
        problems.append(f"{prefix}.pbm: popcount {ones}, expected 2*n_pairs+n = {2 * n_pairs + n}")
    return problems


def lyap_files(prefix: str) -> list[str]:
    return sorted(glob.glob(glob.escape(prefix) + ".m*.eps*.csv"))


def check_lyap(prefix: str) -> list[str]:
    files = lyap_files(prefix)
    problems = []
    if len(files) != LYAP_CURVES:
        problems.append(f"{prefix}: {len(files)} curve files, expected {LYAP_CURVES}")
    for path in files:
        meta, rows = _split(path)
        lam = float(meta.get("lambda_max", "nan"))
        lo, _, hi = meta.get("fit_window", "").partition(":")
        if not math.isfinite(lam):
            problems.append(f"{path}: lambda_max {lam} is not finite")
        if not (lo.isdigit() and hi.isdigit() and 0 <= int(lo) < int(hi) <= len(rows)):
            problems.append(f"{path}: fit window {meta.get('fit_window')!r} outside "
                            f"{len(rows)} rows")
    return problems


def check_step(step) -> list[str]:
    """Problems with the output of one chain step (a missing file is one)."""
    try:
        if step.kind == "series":
            return check_series(step.output, step.config)
        if step.kind == "f1":
            return check_f1(step.output)
        if step.kind == "rp":
            return check_rp(step.output)
        if step.kind == "lyap":
            return check_lyap(step.output)
    except Exception as exc:  # a check that cannot read the output fails the step
        return [f"{step.output}: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown step kind {step.kind!r}")


def digest(steps) -> str:
    """SHA-256 over the integer analysis outputs of one chain iteration."""
    h = hashlib.sha256()
    for step in steps:
        if step.kind == "f1":
            paths = [step.output]
        elif step.kind == "rp":
            paths = [step.output + ".pairs.csv"]
        elif step.kind == "lyap":
            paths = lyap_files(step.output)
        else:
            continue
        for path in paths:
            meta, data = _read(path)
            h.update(os.path.basename(path).encode() + b"\0")
            if step.kind == "lyap":
                dt = float(meta["dt"])
                offsets = [round(float(r.split(b",")[0]) / dt) for r in data.split()]
                h.update(f"{meta.get('fit_window')};{offsets}".encode())
            else:
                h.update(data)
            h.update(b"\0")
    return h.hexdigest()
