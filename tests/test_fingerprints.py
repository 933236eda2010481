"""Output fingerprints: pinned series and analysis results of cut-down runs.

A change that should leave outputs alone is checked here against numbers
committed in tests/data/fingerprints.json.  Counts, windows and offsets are
compared exactly.  Analysis floats are compared at FLOAT_RTOL relative,
because np.log may differ in its last bit from one CPU to another.  Series
values are compared at SERIES_ATOL absolute, the tolerance every series
holds against the direct single-time path.

Each regeneration of a slice is a test-data change with a cause (for
example, a fix that moves lambda on purpose); the slices not named are kept:

    PYTHONPATH=src python tests/test_fingerprints.py --write series|lyap|f1|rp ...
"""

import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from qnldyn.cli import FIGURES, run_simulation
from qnldyn.config import parse_config_text
from qnldyn.series import normalize_series
from qnldyn.tsa.embedding import autocorr_delay, delay_embed
from qnldyn.tsa.lyapunov import lyapunov_scan
from qnldyn.tsa.recurrence import diagonal_line_lengths, mean_diagonal_length, recurrence_plot
from qnldyn.tsa.returns import return_time_histogram

FINGERPRINTS = Path(__file__).parent / "data" / "fingerprints.json"

FLOAT_RTOL = 1e-9

#: Run name -> (figure, run tag, n_samples): pinned figure runs, cut down.
LYAP_RUNS = {"fig11-bjj-even-u50-n20000": ("fig11", "bjj-even-u50", 20000)}

#: Run name -> (figure, run tag, n_samples): pinned f1 runs, cut down to a few
#: hundred returns each.
F1_RUNS = {f"{figure}-{tag}-n20000": (figure, tag, 20000)
           for figure, tag in [("fig3", "kerr-coherent-25"), ("fig3", "kerr-even-25"),
                               ("fig7", "bjj-pi-u50"), ("fig7", "bjj-even-u50")]}

#: The cell size of the f1 step in fig3 and fig7.
F1_CELL_SIZE = 0.01

#: Offsets at which S(t) is pinned: the knee, the rise and the plateau.
S_OFFSETS = (0, 1, 2, 3, 4, 5, 6, 8, 12, 20, 35, 60, 100, 200, 400, 600)

SERIES_ATOL = 1e-9

#: Samples each series run is cut to, and the evenly spaced indices pinned.
SERIES_SAMPLES = 20000
SERIES_POINTS = 64

#: Run texts pinned beside the figure runs: the fidelity of the even cat
#: state, an odd moment (imaginary bands) of an ell = 3 superposition, and
#: the morse chain of the benchmark.
_KERR_CFG = """\
system = kerr
observable = {observable}
t_start = 37.25
dt = 0.008
n_samples = 100000
kerr.chi = 1.0
kerr.chi_prime_ratio = 1e-3
kerr.alpha_sq = 25
kerr.ell = {ell}
"""

_MORSE_CFG = """\
system = morse
observable = x
t_start = 412.5
dt = 0.01
n_samples = 100000
morse.preset = default
morse.alpha = 0.4
morse.ell = 2
"""

#: Run name -> run text: the series runs, cut to SERIES_SAMPLES.
SERIES_RUNS = {
    **{f"{figure}-{tag}-n{SERIES_SAMPLES}": FIGURES[figure].runs[tag]
       for figure, tag in [("fig3", "kerr-coherent-25"), ("fig3", "kerr-even-25"),
                           ("fig7", "bjj-pi-u50"), ("fig11", "bjj-even-u50")]},
    f"kerr-fidelity-l2-n{SERIES_SAMPLES}": _KERR_CFG.format(observable="fidelity", ell=2),
    f"kerr-p3-l3-n{SERIES_SAMPLES}": _KERR_CFG.format(observable="p^3", ell=3),
    f"morse-x-l2-n{SERIES_SAMPLES}": _MORSE_CFG,
}

#: Run name -> run text: the recurrence runs, cut to SERIES_SAMPLES, and the
#: `analyze rp` settings they are pinned at (autocorrelation delay, window from 0).
RP_RUNS = {name: SERIES_RUNS[name]
           for name in (f"fig11-bjj-even-u50-n{SERIES_SAMPLES}", f"morse-x-l2-n{SERIES_SAMPLES}")}
RP_EPSILON = 0.05
RP_M = 3
RP_WINDOW = 2000


def _runs(offsets: np.ndarray) -> list[list[int]]:
    """Offsets as [start, stop) runs of consecutive values."""
    breaks = np.flatnonzero(np.diff(offsets) != 1) + 1
    return [[int(part[0]), int(part[-1]) + 1] for part in np.split(offsets, breaks)]


def _cut_text(text: str, label: str, n_samples: int):
    """The series of a run text simulated over n_samples."""
    text, found = re.subn(r"(?m)^n_samples = \d+$", f"n_samples = {n_samples}", text)
    assert found == 1, f"{label} has no n_samples line to cut down"
    return run_simulation(parse_config_text(text, label))


def _cut_run(figure: str, tag: str, n_samples: int):
    """The series of a figure run simulated over n_samples."""
    return _cut_text(FIGURES[figure].runs[tag], f"{figure}:{tag}", n_samples)


def series_fingerprint(text: str) -> dict:
    """SERIES_POINTS evenly spaced values of a run text cut to SERIES_SAMPLES."""
    values = _cut_text(text, "series run", SERIES_SAMPLES).values
    indices = np.linspace(0, values.size - 1, SERIES_POINTS).round().astype(np.int64)
    return {"indices": indices.tolist(), "values": values[indices].tolist()}


def rp_fingerprint(text: str) -> dict:
    """Pair count, line-length histogram digest and mean line of a run's recurrence plot."""
    norm = normalize_series(_cut_text(text, "rp run", SERIES_SAMPLES))
    emb = delay_embed(norm, RP_M, autocorr_delay(norm))
    rec = recurrence_plot(emb, RP_EPSILON, (0, min(RP_WINDOW, len(emb))))
    lengths = diagonal_line_lengths(rec)
    histogram = np.stack(np.unique(lengths, return_counts=True)).astype("<i8")
    return {
        "n_pairs": rec.n_pairs,
        "length_digest": hashlib.sha256(histogram.tobytes()).hexdigest()[:16],
        "mean_diagonal": mean_diagonal_length(rec),
    }


def f1_fingerprint(figure: str, tag: str, n_samples: int) -> dict:
    """The f1 histogram of a figure run simulated over n_samples."""
    hist = return_time_histogram(normalize_series(_cut_run(figure, tag, n_samples)),
                                 F1_CELL_SIZE)
    taus, counts = np.unique(hist.return_times, return_counts=True)
    return {
        "returns": int(hist.return_times.size),
        "occupied_bins": hist.occupied_bins,
        "insufficient": hist.insufficient,
        "quasi_periodic": hist.quasi_periodic,
        "rows": [[int(t), int(c)] for t, c in zip(taus, counts)],
        "mu_fit": hist.mu_fit,
        "mean_tau": hist.mean_tau,
        "fit_quality": hist.fit_quality,
    }


def lyap_fingerprint(figure: str, tag: str, n_samples: int) -> dict:
    """The default lyap scan of a figure run simulated over n_samples."""
    scan = lyapunov_scan(_cut_run(figure, tag, n_samples))
    curves = []
    for c in scan.curves:
        s_at = dict(zip(c.t_offsets.tolist(), c.s_values.tolist()))
        curves.append({
            "m": c.m,
            "epsilon": c.epsilon,
            "n_references": c.n_references,
            "fit_window": list(c.fit_window),
            "fit_window_clamped": c.fit_window_clamped,
            "defined_offsets": _runs(c.t_offsets),
            "lambda_max": c.lambda_max,
            "s_at": {str(t): s_at[t] for t in S_OFFSETS if t in s_at},
        })
    return {
        "delay": scan.delay,
        "lambda_by_m": {str(m): lam for m, lam in scan.lambda_by_m.items()},
        "lambda_max": scan.lambda_max,
        "curves": curves,
    }


SLICES = {"series": (series_fingerprint, {name: (text,) for name, text in SERIES_RUNS.items()}),
          "lyap": (lyap_fingerprint, LYAP_RUNS), "f1": (f1_fingerprint, F1_RUNS),
          "rp": (rp_fingerprint, {name: (text,) for name, text in RP_RUNS.items()})}


def compute(slice_name: str) -> dict:
    fingerprint, runs = SLICES[slice_name]
    return {name: fingerprint(*run) for name, run in runs.items()}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(SERIES_RUNS))
def test_series_matches_fingerprint(name):
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))["series"][name]
    got = series_fingerprint(SERIES_RUNS[name])
    assert got["indices"] == expected["indices"]
    np.testing.assert_allclose(got["values"], expected["values"], rtol=0.0, atol=SERIES_ATOL)


@pytest.mark.parametrize("name", sorted(SERIES_RUNS))
def test_series_delay_equals_the_double_length_fft(name, double_length_delay):
    norm = normalize_series(_cut_text(SERIES_RUNS[name], name, SERIES_SAMPLES))
    assert autocorr_delay(norm) == double_length_delay(norm)


@pytest.mark.parametrize("name", sorted(F1_RUNS))
def test_f1_histogram_matches_fingerprint(name):
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))["f1"][name]
    got = f1_fingerprint(*F1_RUNS[name])
    for key in ("returns", "occupied_bins", "insufficient", "quasi_periodic", "rows"):
        assert got[key] == expected[key], key
    for key in ("mu_fit", "mean_tau", "fit_quality"):
        assert _close(got[key], expected[key]), key


@pytest.mark.parametrize("name", sorted(RP_RUNS))
def test_rp_plot_matches_fingerprint(name):
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))["rp"][name]
    got = rp_fingerprint(RP_RUNS[name])
    assert got["n_pairs"] == expected["n_pairs"]
    assert got["length_digest"] == expected["length_digest"]
    assert _close(got["mean_diagonal"], expected["mean_diagonal"])


@pytest.mark.parametrize("name", sorted(LYAP_RUNS))
def test_lyap_scan_matches_fingerprint(name):
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))["lyap"][name]
    got = lyap_fingerprint(*LYAP_RUNS[name])
    assert got["delay"] == expected["delay"]
    assert len(got["curves"]) == len(expected["curves"])
    for curve, want in zip(got["curves"], expected["curves"]):
        label = f"m={want['m']} eps={want['epsilon']:g}"
        for key in ("m", "epsilon", "n_references", "fit_window", "fit_window_clamped",
                    "defined_offsets"):
            assert curve[key] == want[key], f"{label}: {key}"
        assert curve["s_at"].keys() == want["s_at"].keys(), label
        for t, s in want["s_at"].items():
            assert _close(curve["s_at"][t], s), f"{label}: S({t})"
        assert _close(curve["lambda_max"], want["lambda_max"]), f"{label}: lambda_max"
    assert got["lambda_by_m"].keys() == expected["lambda_by_m"].keys()
    for m, lam in expected["lambda_by_m"].items():
        assert _close(got["lambda_by_m"][m], lam), f"lambda(m={m})"
    assert _close(got["lambda_max"], expected["lambda_max"])


if __name__ == "__main__":
    names = sys.argv[2:]
    if sys.argv[1:2] != ["--write"] or not names or not set(names) <= SLICES.keys():
        sys.exit(f"usage: {sys.argv[0]} --write {'|'.join(SLICES)} ...   "
                 f"(regenerates those slices of {FINGERPRINTS.name})")
    data = json.loads(FINGERPRINTS.read_text(encoding="utf-8")) if FINGERPRINTS.exists() else {}
    data.update({name: compute(name) for name in names})
    FINGERPRINTS.parent.mkdir(exist_ok=True)
    FINGERPRINTS.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {', '.join(names)} to {FINGERPRINTS}")
