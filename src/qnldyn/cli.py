"""Command-line front end: simulate, analyze, repro.

Exit codes: 0 success, 1 usage or configuration problem or an output
file that cannot be written, 2 numerical contract violation (truncation,
grid resolution, empty neighborhoods).

`simulate`, `analyze` and `repro` share one simulate step and one step
per analysis; each step writes its files and returns the lines
the command prints.  A `repro` figure is a FIGURES entry: run-file texts,
parsed as `simulate` parses a run file, and the analysis step for them.

Each command imports the system or analysis module it uses when it runs.
Only the k-d trees of `analyze rp` and `analyze lyap` (and so `repro fig11`)
load scipy; start-up, `simulate` and `analyze f1` never do.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Callable, NamedTuple

import click
import numpy as np

from .config import RunConfig, load_config, parse_config_text
from .errors import ConfigError, NumericalContractError, OutputError
from .series import SamplingPlan, TimeSeries, normalize_series
from .seriesio import (
    read_series,
    write_f1_histogram,
    write_lyapunov_curve,
    write_recurrence_bitmap,
    write_recurrence_pairs,
    write_series,
)

CACHE_ENV = "QNLDYN_CACHE_DIR"

#: `analyze rp --window-size` default.  It lived in `tsa.embedding`, away from
#: the k-d tree, but even that made every start-up load `qnldyn.tsa`.
DEFAULT_WINDOW = 5000


def _kerr_series(cfg: RunConfig, plan: SamplingPlan) -> TimeSeries:
    from . import fock, kerr

    p = cfg.params
    if p["alpha_sq"] <= 0:
        raise ConfigError("kerr.alpha_sq must be positive")
    params = kerr.KerrParams(chi=p["chi"], chi_prime=p["chi_prime_ratio"] * p["chi"])
    alpha = float(np.sqrt(p["alpha_sq"]))
    if p["ell"] == 1:
        state = fock.coherent_state(alpha)
    else:
        state, _ = fock.superpose_coherent(alpha, p["ell"])
    return kerr.kerr_series(state, params, plan, cfg.observable)


def _morse_series(cfg: RunConfig, plan: SamplingPlan) -> TimeSeries:
    from . import morse

    p = cfg.params
    if p["preset"] not in morse.MORSE_PRESETS:
        raise ConfigError(
            f"morse.preset must be one of {', '.join(sorted(morse.MORSE_PRESETS))}"
        )
    basis = morse.cached_eigenbasis(
        morse.MORSE_PRESETS[p["preset"]], cache_dir=os.environ.get(CACHE_ENV)
    )
    state = morse.superpose_morse(p["alpha"], p["ell"], basis, n_prime=p.get("n_prime"))
    return morse.morse_moments_series(state, plan, cfg.observable)


def _bjj_series(cfg: RunConfig, plan: SamplingPlan) -> TimeSeries:
    from . import bjj

    p = cfg.params
    if p["state"] not in ("even", "pi"):
        raise ConfigError(f"bjj.state must be 'even' or 'pi'; got {p['state']!r}")
    ops = bjj.build_bjj(bjj.BJJParams.from_u(p["n_atoms"], p["u"]))
    state = bjj.make_initial(p["state"], p["n_atoms"])
    return bjj.bloch_series(state, ops, plan, observable=cfg.observable)


def run_simulation(cfg: RunConfig) -> TimeSeries:
    plan = SamplingPlan(cfg.t_start, cfg.dt, cfg.n_samples)
    builder = {"kerr": _kerr_series, "morse": _morse_series, "bjj": _bjj_series}
    series = builder[cfg.system](cfg, plan)
    origin = {**series.origin, **dict(cfg.flat_items())}
    return TimeSeries(series.values, series.dt, origin=origin)


def _simulate_step(cfg: RunConfig, path: str) -> tuple[TimeSeries, list[str]]:
    """Run the configuration, write its series to path; the series and summary."""
    series = run_simulation(cfg)
    write_series(path, series)
    return series, [f"wrote {path} ({len(series)} samples, dt={series.dt:g})"]


def _f1_step(series: TimeSeries, series_path: str, path: str, cell_size: float) -> list[str]:
    """Return-time histogram of the normalized series, written to path."""
    from .tsa import returns

    hist = returns.return_time_histogram(normalize_series(series), cell_size)
    name = os.path.basename(series_path)
    write_f1_histogram(path, hist, metadata={"source": name})
    if hist.insufficient:
        click.echo(f"{name}: insufficient statistics: fewer than 10 returns", err=True)
    fq = "n/a" if hist.fit_quality is None else f"{hist.fit_quality:.4f}"
    return [
        f"returns={len(hist.return_times)} occupied_bins={hist.occupied_bins} "
        f"fit_quality={fq} mu={hist.mu_fit:.6g} mean_tau={hist.mean_tau:.6g}",
        f"wrote {path}",
    ]


def _rp_step(series: TimeSeries, series_path: str, prefix: str, epsilon: float, m: int,
             delay: int | None, window_start: int, window_size: int) -> list[str]:
    """Recurrence plot, pair list and bitmap under prefix, of the window_size
    embedded points from window_start, or of those there are."""
    from .tsa import embedding, recurrence

    norm = normalize_series(series)
    if delay is None:
        delay = embedding.autocorr_delay(norm)
    emb = embedding.delay_embed(norm, m, delay)
    window = (window_start, min(window_start + window_size, len(emb)))
    rec = recurrence.recurrence_plot(emb, epsilon, window)
    write_recurrence_pairs(prefix + ".pairs.csv", rec,
                           metadata={"source": os.path.basename(series_path)})
    write_recurrence_bitmap(prefix + ".pbm", rec)
    mean_len = recurrence.mean_diagonal_length(rec)
    peaks = recurrence.dominant_peak_count(recurrence.diagonal_spacings(rec))
    return [
        f"pairs={rec.n_pairs} rate={rec.recurrence_rate():.4f} "
        f"mean_diagonal={mean_len:.3f} dominant_peaks={peaks}",
        f"wrote {prefix}.pairs.csv and {prefix}.pbm",
    ]


def _lyap_step(series: TimeSeries, series_path: str, prefix: str, m_values=(), epsilons=(),
               theiler: int | None = None, t_max: int | None = None) -> list[str]:
    """Divergence-curve scan, one curve file per (m, epsilon) under prefix; empty
    m_values or epsilons pick the default grid.  No two radii may share a file."""
    from .tsa import lyapunov

    epsilons = epsilons or lyapunov.SCAN_EPSILONS
    names = [f"eps{eps:g}" for eps in epsilons]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"radii {epsilons[names.index(name)]!r} and {epsilons[i]!r} "
                             f"would both write {prefix}.m*.{name}.csv")
    scan = lyapunov.lyapunov_scan(series, m_values or lyapunov.SCAN_DIMENSIONS, epsilons,
                                  theiler=theiler, t_max=t_max)
    meta = {"source": os.path.basename(series_path)}
    for curve in scan.curves:
        write_lyapunov_curve(f"{prefix}.m{curve.m}.eps{curve.epsilon:g}.csv", curve,
                             metadata=meta)
    by_m = " ".join(f"m={m}:{lam:+.6g}" for m, lam in sorted(scan.lambda_by_m.items()))
    clamped = [f"m={c.m}:eps={c.epsilon:g}" for c in scan.curves if c.fit_window_clamped]
    return [
        f"lambda_max={scan.lambda_max:+.6g} per unit time ({by_m})",
        f"spread={scan.spread:.6g} delay={scan.delay}",
        f"fit_window_clamped={len(clamped)}/{len(scan.curves)} ({' '.join(clamped) or 'none'})",
        f"wrote {len(scan.curves)} curve files under {prefix}.*",
    ]


@click.group()
def cli():
    """Wavepacket dynamics and time-series analysis toolkit."""


@cli.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", default=None, help="Override the configured output path.")
def simulate(config_path, output):
    """Run the configured simulation and write the series CSV."""
    cfg = load_config(config_path)
    click.echo("\n".join(_simulate_step(cfg, output or cfg.output)[1]))


@cli.group()
def analyze():
    """Analyses over a stored series CSV."""


@analyze.command()
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--cell-size", default=0.01, show_default=True,
              help="Cell width as a fraction of the normalized range.")
@click.option("--output", "-o", default=None, help="Histogram CSV path.")
def f1(series_path, cell_size, output):
    """First-return-time distribution of the reference cell."""
    path = output or series_path + ".f1.csv"
    click.echo("\n".join(_f1_step(read_series(series_path), series_path, path, cell_size)))


@analyze.command()
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", default=0.05, show_default=True,
              help="Neighborhood radius on the normalized series.")
@click.option("--m", default=3, show_default=True, help="Embedding dimension.")
@click.option("--delay", type=int, default=None,
              help="Embedding delay in samples; unset picks the autocorrelation delay.")
@click.option("--window-start", default=0, show_default=True)
@click.option("--window-size", default=DEFAULT_WINDOW, show_default=True,
              help="Embedded points examined, at most those after --window-start.")
@click.option("--output-prefix", "-o", default=None)
def rp(series_path, output_prefix, **options):
    """Recurrence plot of a series window: pair list and bitmap."""
    prefix = output_prefix or series_path + ".rp"
    click.echo("\n".join(_rp_step(read_series(series_path), series_path, prefix, **options)))


@analyze.command()
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", "epsilons", multiple=True, type=float,
              help="Neighborhood radii (repeatable); default 0.01 0.02 0.04.")
@click.option("--m", "m_values", multiple=True, type=int,
              help="Embedding dimensions (repeatable); default 3 4 5.")
@click.option("--theiler", type=int, default=None,
              help="Theiler window in samples; unset picks 2*delay*m.")
@click.option("--t-max", type=int, default=None,
              help="Curve horizon in samples; unset picks an automatic horizon.")
@click.option("--output-prefix", "-o", default=None)
def lyap(series_path, output_prefix, **options):
    """Divergence curves S(t) and the fitted maximal exponent."""
    prefix = output_prefix or series_path + ".lyap"
    click.echo("\n".join(_lyap_step(read_series(series_path), series_path, prefix, **options)))


class Figure(NamedTuple):
    """`repro` subcommand: each run simulated to <tag>.csv, then step to <tag><suffix>."""

    help: str
    step: Callable[..., list[str]]
    suffix: str
    runs: dict  # tag -> run-file text


_KERR_25 = """\
system = kerr
observable = x^2
t_start = 0.1
dt = 0.008
n_samples = 100000
kerr.chi = 1.0
kerr.chi_prime_ratio = 1e-3
kerr.alpha_sq = 25
kerr.ell = {ell}
"""

_BJJ_U50 = """\
system = bjj
observable = lx
t_start = {t_start}
dt = {dt}
n_samples = {n_samples}
bjj.n_atoms = 40
bjj.u = 50
bjj.state = {state}
"""

_F1 = functools.partial(_f1_step, cell_size=0.01)

FIGURES = {
    "fig3": Figure(
        "Return-time distributions, coherent vs even state, |alpha|^2 = 25.",
        _F1, ".f1.csv",
        {"kerr-coherent-25": _KERR_25.format(ell=1),
         "kerr-even-25": _KERR_25.format(ell=2)},
    ),
    "fig7": Figure(
        "Return-time distributions, pi vs even state, N = 40, u = 50.",
        _F1, ".f1.csv",
        {f"bjj-{state}-u50": _BJJ_U50.format(t_start=0.1, dt=0.1, n_samples=100000,
                                             state=state)
         for state in ("pi", "even")},
    ),
    "fig11": Figure(
        "Divergence curves and exponent, even state, N = 40, u = 50.",
        _lyap_step, ".lyap",
        {"bjj-even-u50": _BJJ_U50.format(t_start=0.0, dt=0.02, n_samples=200000,
                                         state="even")},
    ),
}


@cli.group()
def repro():
    """Pinned figure runs through the simulate and analyze steps."""


def _repro(name: str, output_dir: str) -> None:
    figure = FIGURES[name]
    try:
        os.makedirs(output_dir, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot write {output_dir}: {exc.strerror}") from exc
    for tag, text in figure.runs.items():
        path = os.path.join(output_dir, tag + ".csv")
        series, lines = _simulate_step(parse_config_text(text, f"{name}:{tag}"), path)
        lines += figure.step(series, path, os.path.join(output_dir, tag + figure.suffix))
        click.echo("\n".join(f"{tag}: {line}" for line in lines))


for _name, _figure in FIGURES.items():
    repro.command(_name, help=_figure.help)(
        click.option("--output-dir", "-d", default=".", show_default=True)(
            functools.partial(_repro, _name)))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
