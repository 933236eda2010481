"""Command-line front end: simulate, analyze, repro.

Exit codes: 0 success, 1 usage or configuration problem, 2 numerical
contract violation (truncation, grid resolution, empty neighborhoods).

Each command imports the system or analysis module it uses when it runs,
so start-up loads no scipy and `analyze f1` never does.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, NumericalContractError
from .series import SamplingPlan, TimeSeries, normalize_series
from .seriesio import (
    read_series,
    write_f1_histogram,
    write_lyapunov_curve,
    write_recurrence_bitmap,
    write_recurrence_pairs,
    write_series,
)
from .tsa.embedding import DEFAULT_WINDOW

CACHE_ENV = "QNLDYN_CACHE_DIR"


def _kerr_series(cfg: RunConfig, plan: SamplingPlan) -> TimeSeries:
    from . import fock, kerr

    p = cfg.params
    chi = float(p.get("chi", 1.0))
    ratio = float(p.get("chi_prime_ratio", 0.0))
    alpha_sq = float(p.get("alpha_sq", 25.0))
    ell = int(p.get("ell", 1))
    if alpha_sq <= 0:
        raise ConfigError("kerr.alpha_sq must be positive")
    params = kerr.KerrParams(chi=chi, chi_prime=ratio * chi)
    alpha = float(np.sqrt(alpha_sq))
    if ell == 1:
        state = fock.coherent_state(alpha)
    else:
        state, _ = fock.superpose_coherent(alpha, ell)
    return kerr.kerr_series(state, params, plan, cfg.observable)


def _morse_series(cfg: RunConfig, plan: SamplingPlan) -> TimeSeries:
    from . import morse

    p = cfg.params
    preset = str(p.get("preset", "default"))
    if preset not in morse.MORSE_PRESETS:
        raise ConfigError(
            f"morse.preset must be one of {', '.join(sorted(morse.MORSE_PRESETS))}"
        )
    params = morse.MORSE_PRESETS[preset]
    basis = morse.cached_eigenbasis(
        params,
        cache_dir=os.environ.get(CACHE_ENV),
        n_points=int(p.get("n_points", 6000)),
    )
    alpha = float(p.get("alpha", 0.4))
    ell = int(p.get("ell", 1))
    n_prime = int(p.get("n_prime", basis.n_states - 1))
    if ell == 1:
        state = morse.perelomov_state(alpha, basis, n_prime=n_prime)
    else:
        state = morse.superpose_morse(alpha, ell, basis, n_prime=n_prime)
    obs = cfg.observable.lower()
    if obs in ("x", "p"):
        return morse.morse_moments_series(state, plan, obs)
    if obs in ("autocorrelation", "survival"):
        amps = morse.morse_autocorrelation(state, plan.times())
        return TimeSeries(np.abs(amps) ** 2, plan.dt, origin={"observable": obs})
    raise ConfigError(
        f"morse observable must be x, p, autocorrelation, or survival; got {obs!r}"
    )


def _bjj_series(cfg: RunConfig, plan: SamplingPlan) -> TimeSeries:
    from . import bjj

    p = cfg.params
    n_atoms = int(p.get("n_atoms", 40))
    u = float(p.get("u", 50.0))
    kind = str(p.get("state", "even"))
    if kind not in ("even", "pi"):
        raise ConfigError(f"bjj.state must be 'even' or 'pi'; got {kind!r}")
    params = bjj.BJJParams.from_u(n_atoms, u)
    ops = bjj.build_bjj(params)
    state = bjj.make_initial(kind, n_atoms)
    return bjj.bloch_series(state, ops, plan, observable=cfg.observable)


def run_simulation(cfg: RunConfig) -> TimeSeries:
    plan = SamplingPlan(cfg.t_start, cfg.dt, cfg.n_samples)
    builder = {"kerr": _kerr_series, "morse": _morse_series, "bjj": _bjj_series}
    series = builder[cfg.system](cfg, plan)
    origin = dict(series.origin)
    for key, value in cfg.flat_items():
        origin[str(key)] = value
    return TimeSeries(series.values, series.dt, origin=origin)


@click.group()
def cli():
    """Wavepacket dynamics and time-series analysis toolkit."""


@cli.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", default=None, help="Override the configured output path.")
def simulate(config_path, output):
    """Run the configured simulation and write the series CSV."""
    cfg = load_config(config_path)
    series = run_simulation(cfg)
    path = output or cfg.output
    write_series(path, series)
    click.echo(f"wrote {path} ({len(series)} samples, dt={series.dt:g})")


@cli.group()
def analyze():
    """Analyses over a stored series CSV."""


def _load_normalized(series_path: str) -> TimeSeries:
    return normalize_series(read_series(series_path))


@analyze.command()
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--cell-size", default=0.01, show_default=True,
              help="Cell width as a fraction of the normalized range.")
@click.option("--output", "-o", default=None, help="Histogram CSV path.")
def f1(series_path, cell_size, output):
    """First-return-time distribution of the reference cell."""
    from .tsa import returns

    norm = _load_normalized(series_path)
    hist = returns.return_time_histogram(norm, cell_size)
    path = output or series_path + ".f1.csv"
    write_f1_histogram(path, hist, metadata={"source": os.path.basename(series_path)})
    fq = "n/a" if hist.fit_quality is None else f"{hist.fit_quality:.4f}"
    click.echo(
        f"mu={hist.mu_fit:.6g} mean_tau={hist.mean_tau:.6g} fit_quality={fq} "
        f"returns={len(hist.return_times)} occupied_bins={hist.occupied_bins}"
    )
    if hist.insufficient:
        click.echo("insufficient statistics: fewer than 10 returns", err=True)
    click.echo(f"wrote {path}")


@analyze.command()
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", default=0.05, show_default=True,
              help="Neighborhood radius on the normalized series.")
@click.option("--m", default=3, show_default=True, help="Embedding dimension.")
@click.option("--delay", default=0, show_default=True,
              help="Embedding delay in samples; 0 picks the autocorrelation delay.")
@click.option("--window-start", default=0, show_default=True)
@click.option("--window-size", default=DEFAULT_WINDOW, show_default=True)
@click.option("--raw-scalar", is_flag=True, help="Skip embedding; use raw samples.")
@click.option("--output-prefix", "-o", default=None)
def rp(series_path, epsilon, m, delay, window_start, window_size, raw_scalar, output_prefix):
    """Recurrence plot of a series window: pair list and bitmap."""
    from .tsa import embedding, recurrence

    norm = _load_normalized(series_path)
    if raw_scalar:
        emb = embedding.delay_embed(norm, 1, 1)
    else:
        d = delay if delay > 0 else embedding.autocorr_delay(norm)
        emb = embedding.delay_embed(norm, m, d)
    window = (window_start, window_start + window_size)
    rec = recurrence.recurrence_plot(emb, epsilon, window)
    prefix = output_prefix or series_path + ".rp"
    write_recurrence_pairs(prefix + ".pairs.csv", rec,
                           metadata={"source": os.path.basename(series_path)})
    write_recurrence_bitmap(prefix + ".pbm", rec)
    lengths = recurrence.diagonal_line_lengths(rec)
    mean_len = float(lengths.mean()) if lengths.size else 0.0
    peaks = recurrence.dominant_peak_count(recurrence.diagonal_spacings(rec))
    click.echo(
        f"pairs={rec.n_pairs} rate={rec.recurrence_rate():.4f} "
        f"mean_diagonal={mean_len:.3f} dominant_peaks={peaks}"
    )
    click.echo(f"wrote {prefix}.pairs.csv and {prefix}.pbm")


@analyze.command()
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", "epsilons", multiple=True, type=float,
              help="Neighborhood radii (repeatable); default 0.01 0.02 0.04.")
@click.option("--m", "m_values", multiple=True, type=int,
              help="Embedding dimensions (repeatable); default 3 4 5.")
@click.option("--theiler", default=0, show_default=True,
              help="Theiler window in samples; 0 picks 2*delay*m.")
@click.option("--t-max", default=0, show_default=True,
              help="Curve horizon in samples; 0 picks an automatic horizon.")
@click.option("--output-prefix", "-o", default=None)
def lyap(series_path, epsilons, m_values, theiler, t_max, output_prefix):
    """Divergence curves S(t) and the fitted maximal exponent."""
    from .tsa import lyapunov

    series = read_series(series_path)
    scan = lyapunov.lyapunov_scan(
        series,
        m_values=tuple(m_values) or lyapunov.SCAN_DIMENSIONS,
        epsilons=tuple(epsilons) or lyapunov.SCAN_EPSILONS,
        theiler=theiler if theiler > 0 else None,
        t_max=t_max if t_max > 0 else None,
    )
    prefix = output_prefix or series_path + ".lyap"
    for curve in scan.curves:
        path = f"{prefix}.m{curve.m}.eps{curve.epsilon:g}.csv"
        write_lyapunov_curve(path, curve)
    by_m = " ".join(f"m={m}:{lam:+.6g}" for m, lam in sorted(scan.lambda_by_m.items()))
    click.echo(f"lambda_max={scan.lambda_max:+.6g} per unit time ({by_m})")
    click.echo(f"spread={scan.spread:.6g} delay={scan.delay}")
    click.echo(f"wrote {len(scan.curves)} curve files under {prefix}.*")


@cli.group()
def repro():
    """Chained simulate + analyze runs with pinned parameters."""


def _config(system: str, observable: str, t_start: float, dt: float,
            n_samples: int, **params) -> RunConfig:
    return RunConfig(
        system=system,
        observable=observable,
        t_start=t_start,
        dt=dt,
        n_samples=n_samples,
        output="series.csv",
        params=params,
    )


def _emit_f1(cfg: RunConfig, outdir: str, tag: str, cell_size: float) -> None:
    from .tsa import returns

    series = run_simulation(cfg)
    series_path = os.path.join(outdir, f"{tag}.csv")
    write_series(series_path, series)
    hist = returns.return_time_histogram(normalize_series(series), cell_size)
    hist_path = os.path.join(outdir, f"{tag}.f1.csv")
    write_f1_histogram(hist_path, hist, metadata={"source": f"{tag}.csv"})
    fq = "n/a" if hist.fit_quality is None else f"{hist.fit_quality:.4f}"
    click.echo(f"{tag}: returns={len(hist.return_times)} "
               f"occupied_bins={hist.occupied_bins} fit_quality={fq}")


@repro.command()
@click.option("--output-dir", "-d", default=".", show_default=True)
def fig3(output_dir):
    """Return-time distributions, coherent vs even state, |alpha|^2 = 25."""
    os.makedirs(output_dir, exist_ok=True)
    for tag, ell in (("kerr-coherent-25", 1), ("kerr-even-25", 2)):
        cfg = _config("kerr", "x^2", 0.1, 0.008, 100000,
                      chi=1.0, chi_prime_ratio=1e-3, alpha_sq=25.0, ell=ell)
        _emit_f1(cfg, output_dir, tag, cell_size=0.01)


@repro.command()
@click.option("--output-dir", "-d", default=".", show_default=True)
def fig7(output_dir):
    """Return-time distributions, pi vs even state, N = 40, u = 50."""
    os.makedirs(output_dir, exist_ok=True)
    for tag, kind in (("bjj-pi-u50", "pi"), ("bjj-even-u50", "even")):
        cfg = _config("bjj", "lx", 0.1, 0.1, 100000,
                      n_atoms=40, u=50.0, state=kind)
        _emit_f1(cfg, output_dir, tag, cell_size=0.01)


@repro.command()
@click.option("--output-dir", "-d", default=".", show_default=True)
def fig11(output_dir):
    """Divergence curves and exponent, even state, N = 40, u = 50."""
    from .tsa import lyapunov

    os.makedirs(output_dir, exist_ok=True)
    cfg = _config("bjj", "lx", 0.0, 0.02, 200000, n_atoms=40, u=50.0, state="even")
    series = run_simulation(cfg)
    series_path = os.path.join(output_dir, "bjj-even-u50.csv")
    write_series(series_path, series)
    scan = lyapunov.lyapunov_scan(series)
    prefix = os.path.join(output_dir, "bjj-even-u50.lyap")
    for curve in scan.curves:
        write_lyapunov_curve(f"{prefix}.m{curve.m}.eps{curve.epsilon:g}.csv", curve)
    by_m = " ".join(f"m={m}:{lam:+.6g}" for m, lam in sorted(scan.lambda_by_m.items()))
    click.echo(f"lambda_max={scan.lambda_max:+.6g} per unit time ({by_m})")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
