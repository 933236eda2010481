"""Command-line surface: simulate, analyze, repro, and exit-code contract."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qnldyn
import qnldyn.cli as cli_module
from qnldyn.cli import cli, main
from qnldyn.errors import TruncationError
from qnldyn.fock import FockVector, apply_quadrature, coherent_state, quadrature_moment
from qnldyn.kerr import KerrParams, evolve_kerr, kerr_series
from qnldyn.seriesio import read_series, write_series
from qnldyn.series import SamplingPlan, TimeSeries, normalize_series
from qnldyn.tsa import autocorr_delay, delay_embed, recurrence_plot
from qnldyn.tsa.synthetic import logistic_series, sine_series

KERR_CFG = """\
system = kerr
observable = x^2
t_start = 0.1
dt = 0.05
n_samples = 4000
kerr.chi = 1.0
kerr.chi_prime_ratio = 1e-3
kerr.alpha_sq = 9
kerr.ell = 2
"""

BJJ_CFG = """\
system = bjj
t_start = 0.0
dt = 0.1
n_samples = 3000
bjj.n_atoms = 20
bjj.u = 50
bjj.state = even
"""


@pytest.fixture()
def runner():
    return CliRunner()


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_writes_series(runner, tmp_path):
    cfg = write_cfg(tmp_path, KERR_CFG)
    out = str(tmp_path / "series.csv")
    result = runner.invoke(cli, ["simulate", cfg, "--output", out])
    assert result.exit_code == 0, result.output
    series = read_series(out)
    assert len(series) == 4000
    assert series.dt == 0.05
    assert series.origin["system"] == "kerr"
    assert series.origin["kerr.ell"] == "2"
    # first sample of <x^2> for the two-component state at t_start
    assert series.values[0] > 0.0


def test_simulate_reports_config_errors(runner, tmp_path):
    cfg = write_cfg(tmp_path, "system = kerr\nkerr.bogus = 1\n", name="bad.cfg")
    result = runner.invoke(cli, ["simulate", cfg])
    assert result.exit_code != 0


def test_bjj_simulation_and_full_analysis_chain(runner, tmp_path):
    cfg = write_cfg(tmp_path, BJJ_CFG)
    out = str(tmp_path / "bjj.csv")
    assert runner.invoke(cli, ["simulate", cfg, "-o", out]).exit_code == 0

    f1 = runner.invoke(cli, ["analyze", "f1", out, "--cell-size", "0.02"])
    assert f1.exit_code == 0, f1.output
    assert "mu=" in f1.output and "fit_quality=" in f1.output
    assert os.path.exists(out + ".f1.csv")

    rp = runner.invoke(cli, ["analyze", "rp", out, "--epsilon", "0.1",
                             "--window-size", "1000"])
    assert rp.exit_code == 0, rp.output
    assert "mean_diagonal=" in rp.output
    assert os.path.exists(out + ".rp.pairs.csv")
    assert os.path.exists(out + ".rp.pbm")

    lyap = runner.invoke(cli, ["analyze", "lyap", out, "--epsilon", "0.02",
                               "--m", "3", "--t-max", "60"])
    assert lyap.exit_code == 0, lyap.output
    assert "lambda_max=" in lyap.output
    assert os.path.exists(out + ".lyap.m3.eps0.02.csv")


def test_analyze_lyap_reports_clamped_fit_windows(runner, tmp_path):
    """On the logistic map both radii fit over (1, 5); only at eps = 0.1 is
    that the 4-point floor standing in for a shorter rise, and the header
    and the printed summary say so."""
    path = str(tmp_path / "logistic.csv")
    write_series(path, logistic_series(3000))
    result = runner.invoke(cli, ["analyze", "lyap", path, "--t-max", "30", "--m", "2",
                                 "--m", "3", "--epsilon", "0.05", "--epsilon", "0.1"])
    assert result.exit_code == 0, result.output
    assert "fit_window_clamped=2/4 (m=2:eps=0.1 m=3:eps=0.1)" in result.output.splitlines()
    for m in (2, 3):
        for eps, clamped in (("0.05", "false"), ("0.1", "true")):
            header = (tmp_path / f"logistic.csv.lyap.m{m}.eps{eps}.csv").read_text()
            assert "# fit_window=1:5\n" in header
            assert f"# fit_window_clamped={clamped}\n" in header


def read_pairs(path) -> tuple[dict, np.ndarray]:
    """Header and (i, j) rows of a recurrence pair list."""
    with open(path) as fh:
        text = fh.read()
    header = dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("#"))
    rows = [tuple(map(int, line.split(","))) for line in text.splitlines()
            if line and not line.startswith("#")]
    return header, np.array(rows, dtype=np.int64).reshape(-1, 2)


def test_analyze_rp_m1_uses_the_raw_samples(runner, tmp_path):
    series = TimeSeries(np.sin(np.arange(2000) / 7.0), 1.0)
    path = str(tmp_path / "sine.csv")
    write_series(path, series)
    result = runner.invoke(cli, ["analyze", "rp", path, "--m", "1",
                                 "--epsilon", "0.05", "--window-size", "500"])
    assert result.exit_code == 0, result.output
    assert "dominant_peaks=" in result.output
    rec = recurrence_plot(delay_embed(normalize_series(series), 1, 1), 0.05, (0, 500))
    header, pairs = read_pairs(path + ".rp.pairs.csv")
    assert header["n_points"] == "500"
    assert np.array_equal(pairs, np.column_stack([rec.ii, rec.jj]))


@pytest.mark.parametrize("start", [0, 2000])
def test_analyze_rp_window_stops_at_the_last_embedded_point(tmp_path, start):
    """The default 5000-point window on a 3000-sample series takes every
    embedded point from --window-start on."""
    path = str(tmp_path / "sine.csv")
    write_series(path, sine_series(3000))
    assert main(["analyze", "rp", path, "--window-start", str(start)]) == 0
    norm = normalize_series(read_series(path))
    n_embedded = len(delay_embed(norm, 3, autocorr_delay(norm)))
    header, _ = read_pairs(path + ".rp.pairs.csv")
    assert (header["n_points"], header["window_start"]) == (str(n_embedded - start), str(start))


@pytest.mark.parametrize("argv, message", [
    (["lyap", "--theiler", "-7"], "theiler must be >= 0"),
    (["lyap", "--t-max", "-5"], "t_max must be >= 3"),
    (["rp", "--delay", "-3"], "delay must be >= 1"),
    (["rp", "--raw-scalar"], "No such option"),
], ids=["theiler", "t_max", "delay", "raw_scalar"])
def test_rejected_analysis_options_exit_one(tmp_path, capsys, argv, message):
    """A negative value is rejected, not read as "automatic"; --raw-scalar,
    a copy of --m 1, is gone."""
    path = str(tmp_path / "logistic.csv")
    write_series(path, logistic_series(1000))
    command, *options = argv
    assert main(["analyze", command, path, "--m", "3", *options]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rp", "lyap"])
@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_non_finite_radius_exits_one_writing_nothing(tmp_path, capsys, command, epsilon):
    """An infinite radius would make every pair a recurrence, and every usable
    point a neighbor of each reference."""
    path = str(tmp_path / "logistic.csv")
    write_series(path, logistic_series(300))
    assert main(["analyze", command, path, "--m", "3", "--epsilon", epsilon]) == 1
    assert "error: epsilon must be finite and positive" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["logistic.csv"]


def test_analyze_lyap_theiler_zero_is_a_zero_window(tmp_path):
    path = str(tmp_path / "logistic.csv")
    write_series(path, logistic_series(2000))
    assert main(["analyze", "lyap", path, "--theiler", "0", "--m", "2", "--m", "3",
                 "--epsilon", "0.05", "--t-max", "20"]) == 0
    for m in (2, 3):
        assert "# theiler=0\n" in (tmp_path / f"logistic.csv.lyap.m{m}.eps0.05.csv").read_text()


@pytest.mark.parametrize("options, message", [
    (["--m", "3", "--m", "3", "--epsilon", "0.05"], "m_values (3, 3)"),
    (["--m", "3", "--epsilon", "0.0500001", "--epsilon", "0.05000012"],
     "radii 0.0500001 and 0.05000012 would both write"),
], ids=["repeated_m", "same_file_name"])
def test_analyze_lyap_rejects_curves_that_share_a_file(tmp_path, capsys, options, message):
    path = str(tmp_path / "logistic.csv")
    write_series(path, logistic_series(2000))
    assert main(["analyze", "lyap", path, "--t-max", "20", *options]) == 1
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["logistic.csv"]


def test_exit_code_one_for_config_and_data_errors(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("system = kerr\nkerr.bogus = 1\n")
    assert main(["simulate", str(bad_cfg)]) == 1

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("# dt=0.1\n1.0\n2.0\nwhoops\n")
    assert main(["analyze", "f1", str(bad_csv)]) == 1

    # an infinite dt fails on reading, before any analysis runs
    rows = "".join("%.17g\n" % v for v in logistic_series(1000).values)
    bad_csv.write_text("# dt=inf\n" + rows)
    for command in ("f1", "lyap"):
        assert main(["analyze", command, str(bad_csv)]) == 1
        assert f"{bad_csv}: dt must be finite and positive: 'inf'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg", "bad.csv"]


@pytest.mark.parametrize("cell_size, message", [
    ("5", "series never left the reference cell; reduce cell_size"),
    ("inf", "cell_size must be finite and positive"),
    ("nan", "cell_size must be finite and positive"),
])
def test_f1_cell_too_wide_or_not_finite_names_the_remedy(tmp_path, capsys, cell_size, message):
    """The normalized series spans [0, 1], so a cell of width 5 holds every
    sample: the series never left its cell, and the remedy is a smaller one."""
    path = str(tmp_path / "sine.csv")
    write_series(path, sine_series(2000, 97.31))
    assert main(["analyze", "f1", path, "--cell-size", cell_size]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["sine.csv"]


def test_non_utf8_series_header_names_its_line(tmp_path, capsys):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"# dt=0.5\n# note=\xff\n1.0\n2.0\n")
    assert main(["analyze", "f1", str(bad_csv)]) == 1
    assert f"{bad_csv}:2: header line is not UTF-8: b'# note=\\xff'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.csv"]


def test_exit_code_two_for_numerical_contract_violation(tmp_path):
    rng = np.random.default_rng(23)
    path = str(tmp_path / "noise.csv")
    write_series(path, TimeSeries(rng.random(2000), 1.0))
    code = main(["analyze", "lyap", path, "--epsilon", "1e-12", "--m", "3"])
    assert code == 2


@pytest.mark.parametrize("axis", ["x", "p"])
def test_quartic_moment_at_large_occupation_is_not_rejected(tmp_path, axis):
    """<x^4> ~ 2.5e7 at |alpha|^2 = 2500: one rounding of it is 3.7e-9, so an
    absolute 1e-10 gate on the imaginary part used to reject a valid run,
    in the series kernel and in the single-time `quadrature_moment` alike."""
    cfg = write_cfg(tmp_path, f"system = kerr\nobservable = {axis}^4\nkerr.alpha_sq = 2500\n"
                              "n_samples = 200\ndt = 0.008\n")
    out = str(tmp_path / "quartic.csv")
    assert main(["simulate", cfg, "-o", out]) == 0
    series = read_series(out)

    state = coherent_state(50.0)
    padded = np.concatenate([state.amplitudes, np.zeros(4)])
    # sum_jk |c_j| |x^4_jk| |c_k|: sum |M| for x^4, and an upper bound on it
    # for p^4, whose entries have the same moduli before cancellation.
    size = np.abs(padded)
    for _ in range(4):
        size = apply_quadrature(size, "x")
    size = float(np.abs(padded) @ size)
    params = KerrParams(chi=1.0)
    times = float(series.origin["t_start"]) + series.dt * np.arange(len(series))
    for k, t in enumerate(times):
        direct = quadrature_moment(evolve_kerr(state, params, t), axis, 4)
        assert abs(series.values[k] - direct) <= 1e-9 * size


def test_exit_code_zero_on_success(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(KERR_CFG)
    out = str(tmp_path / "ok.csv")
    assert main(["simulate", str(cfg), "-o", out]) == 0


def test_repro_return_time_pair(runner, tmp_path):
    result = runner.invoke(cli, ["repro", "fig7", "-d", str(tmp_path)])
    assert result.exit_code == 0, result.output
    for tag in ("bjj-pi-u50", "bjj-even-u50"):
        assert os.path.exists(tmp_path / f"{tag}.csv")
        assert os.path.exists(tmp_path / f"{tag}.f1.csv")
        assert f"{tag}: returns=" in result.output


#: The analyze command each figure's runs go through, with its options.
FIGURE_ANALYSES = {
    "fig3": ("f1", ".f1.csv", ("--cell-size", "0.01")),
    "fig7": ("f1", ".f1.csv", ("--cell-size", "0.01")),
    "fig11": ("lyap", ".lyap", ()),
}


@pytest.mark.parametrize("name", sorted(FIGURE_ANALYSES))
def test_repro_equals_simulate_then_analyze(runner, tmp_path, name):
    """Every file repro writes is byte-identical to what simulate and analyze
    write for the same run text, and repro prints their lines, tagged.
    Each analysis output records its source series."""
    command, suffix, options = FIGURE_ANALYSES[name]
    repro_dir, chain_dir = tmp_path / "repro", tmp_path / "chain"
    result = runner.invoke(cli, ["repro", name, "-d", str(repro_dir)])
    assert result.exit_code == 0, result.output
    chain_dir.mkdir()
    expected_lines = []
    for tag, text in cli_module.FIGURES[name].runs.items():
        cfg = write_cfg(tmp_path, text, name=f"{tag}.cfg")
        series = str(chain_dir / f"{tag}.csv")
        steps = (["simulate", cfg, "-o", series],
                 ["analyze", command, series, *options, "-o", str(chain_dir / (tag + suffix))])
        for argv in steps:
            step = runner.invoke(cli, argv)
            assert step.exit_code == 0, step.output
            expected_lines += [f"{tag}: {line}" for line in step.stdout.splitlines()]
    assert sorted(os.listdir(repro_dir)) == sorted(os.listdir(chain_dir))
    for file in os.listdir(chain_dir):
        data = (chain_dir / file).read_bytes()
        assert (repro_dir / file).read_bytes() == data, file
        tag = file.split(".")[0]
        if file != f"{tag}.csv":  # an analysis output names its series
            assert f"# source={tag}.csv\n".encode() in data, file
    assert result.stdout.replace(str(repro_dir), str(chain_dir)).splitlines() == expected_lines


@pytest.mark.parametrize("name", ["fig3", "fig7"])
def test_repro_warns_on_insufficient_statistics(runner, tmp_path, monkeypatch, name):
    """Runs cut to 400 samples return fewer than 10 times; repro warns on
    stderr as analyze f1 does, and still prints each run's summary."""
    figure = cli_module.FIGURES[name]
    short = {tag: text.replace("n_samples = 100000", "n_samples = 400")
             for tag, text in figure.runs.items()}
    monkeypatch.setitem(cli_module.FIGURES, name, figure._replace(runs=short))
    result = runner.invoke(cli, ["repro", name, "-d", str(tmp_path)])
    assert result.exit_code == 0, result.output
    for tag in short:
        assert f"{tag}: returns=" in result.stdout
        assert f"{tag}.csv: insufficient statistics" in result.stderr
        analyzed = runner.invoke(cli, ["analyze", "f1", str(tmp_path / f"{tag}.csv")])
        assert f"{tag}.csv: insufficient statistics" in analyzed.stderr


#: Every section key with a static default, as the series header writes it.
SECTION_DEFAULTS = {
    "kerr": {"kerr.chi": "1", "kerr.chi_prime_ratio": "0", "kerr.alpha_sq": "25",
             "kerr.ell": "1"},
    "morse": {"morse.preset": "default", "morse.alpha": "0.40000000000000002",
              "morse.ell": "1"},
    "bjj": {"bjj.n_atoms": "40", "bjj.u": "50", "bjj.state": "even"},
}


@pytest.mark.parametrize("system", sorted(SECTION_DEFAULTS))
def test_omitted_keys_write_their_defaults_into_the_series_header(runner, tmp_path,
                                                                   monkeypatch, system):
    monkeypatch.delenv("QNLDYN_CACHE_DIR", raising=False)
    cfg = write_cfg(tmp_path, f"system = {system}\nn_samples = 50\n")
    out = str(tmp_path / "series.csv")
    result = runner.invoke(cli, ["simulate", cfg, "-o", out])
    assert result.exit_code == 0, result.output
    origin = read_series(out).origin
    section = {key: value for key, value in origin.items() if key.startswith(system + ".")}
    assert section == SECTION_DEFAULTS[system]
    assert "morse.n_prime" not in origin
    assert origin["t_start"] == "0" and origin["dt"] == "0.10000000000000001"


#: The model keys each system's series header carries between `observable`
#: and `t_start`.
MODEL_KEYS = {
    "kerr": ["chi", "chi_prime", "cutoff"],
    "morse": ["D", "beta", "mu", "r0"],
    "bjj": ["n_atoms", "J", "U", "u"],
}

#: Every (system, observable) kind the CLI accepts.
ACCEPTED_OBSERVABLES = [
    *[("kerr", obs) for obs in ("x^3", "p^2", "fidelity")],
    *[("morse", obs) for obs in ("x", "p", "autocorrelation", "survival")],
    *[("bjj", obs) for obs in ("lx", "ly", "lz")],
]


@pytest.mark.parametrize("system, observable", ACCEPTED_OBSERVABLES)
def test_every_series_header_carries_model_keys_then_the_plan(tmp_path, monkeypatch,
                                                             system, observable):
    """One provenance order for every series, survival included: dt, system,
    observable, the model keys, t_start, n_samples, then the section keys."""
    monkeypatch.delenv("QNLDYN_CACHE_DIR", raising=False)
    cfg = write_cfg(tmp_path, f"system = {system}\nobservable = {observable}\n"
                              "n_samples = 50\n")
    out = str(tmp_path / "series.csv")
    assert main(["simulate", cfg, "-o", out]) == 0
    origin = read_series(out).origin
    assert list(origin) == ["dt", "system", "observable", *MODEL_KEYS[system], "t_start",
                            "n_samples", *sorted(SECTION_DEFAULTS[system])]
    assert (origin["system"], origin["observable"]) == (system, observable)


@pytest.mark.parametrize("system, message", [
    ("kerr", "unknown observable 'bogus'"),
    ("morse", "morse observable must be x, p, autocorrelation, or survival; got 'bogus'"),
    ("bjj", "unknown operator 'bogus'"),
])
def test_unknown_observable_exits_one_naming_it(tmp_path, capsys, monkeypatch, system,
                                                message):
    monkeypatch.delenv("QNLDYN_CACHE_DIR", raising=False)
    cfg = write_cfg(tmp_path, f"system = {system}\nobservable = bogus\nn_samples = 50\n")
    assert main(["simulate", cfg, "-o", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "out.csv")


def _data_rows(path):
    with open(path, "rb") as fh:
        return [line for line in fh if not line.startswith(b"#")]


def test_bjj_observable_name_ignores_case(tmp_path, capsys):
    rows = {}
    for name in ("LX", "lx", " Lx "):
        cfg = write_cfg(tmp_path, f"system = bjj\nobservable = {name}\nn_samples = 50\n")
        out = tmp_path / f"{name.strip()}.csv"
        assert main(["simulate", cfg, "-o", str(out)]) == 0
        rows[name] = _data_rows(out)
    assert rows["LX"] == rows["lx"] == rows[" Lx "]
    capsys.readouterr()
    cfg = write_cfg(tmp_path, "system = bjj\nobservable = LQ\nn_samples = 50\n")
    assert main(["simulate", cfg, "-o", str(tmp_path / "bad.csv")]) == 1
    assert capsys.readouterr().err == "error: unknown operator 'LQ'\n"


def test_kerr_series_and_quadrature_moment_share_one_truncation_gate():
    state = coherent_state(1.0)
    amps = state.amplitudes.copy()
    amps[-1] = 1e-4  # weight 1e-8 on the cutoff level
    amps /= np.linalg.norm(amps)
    edge = FockVector(amps)
    plan = SamplingPlan(0.0, 0.1, 10)
    with pytest.raises(TruncationError) as from_series:
        kerr_series(edge, KerrParams(chi=1.0), plan, "x^2")
    with pytest.raises(TruncationError) as from_moment:
        quadrature_moment(edge, "x", 2)
    assert str(from_series.value) == str(from_moment.value)
    assert str(from_moment.value) == ("top 2 levels carry weight 1.000e-08 > 1e-10; "
                                      "increase the cutoff")


@pytest.mark.parametrize("ell, n_prime", [(2, 30), (3, 30), (1, -2), (2, -2)])
def test_morse_top_level_outside_the_bound_spectrum_exits_one(tmp_path, capsys, monkeypatch,
                                                               ell, n_prime):
    """The default well's bound levels are n = 0 .. 20, whatever ell is."""
    monkeypatch.delenv("QNLDYN_CACHE_DIR", raising=False)
    cfg = write_cfg(tmp_path, f"system = morse\nn_samples = 50\nmorse.ell = {ell}\n"
                              f"morse.n_prime = {n_prime}\n")
    assert main(["simulate", cfg, "-o", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: n_prime outside the bound spectrum\n"
    assert not os.path.exists(tmp_path / "out.csv")


def test_help_screens(runner):
    for args in ([], ["simulate"], ["analyze"], ["analyze", "f1"],
                 ["analyze", "rp"], ["analyze", "lyap"], ["repro"]):
        result = runner.invoke(cli, args + ["--help"])
        assert result.exit_code == 0
        assert main(args + ["--help"]) == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qnldyn.cli", "--help"],
        capture_output=True,
        text=True,
    )
    # module execution path; the installed `qnldyn` script wraps the same main
    assert proc.returncode == 0 or "usage" in (proc.stdout + proc.stderr).lower()


def test_morse_simulation_uses_cache(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("QNLDYN_CACHE_DIR", str(tmp_path / "cache"))
    cfg = write_cfg(
        tmp_path,
        "system = morse\n"
        "observable = x\n"
        "dt = 0.01\n"
        "n_samples = 500\n"
        "morse.alpha = 0.4\n"
        "morse.ell = 2\n",
        name="morse.cfg",
    )
    out = str(tmp_path / "morse.csv")
    result = runner.invoke(cli, ["simulate", cfg, "-o", out])
    assert result.exit_code == 0, result.output
    cache_dir = tmp_path / "cache"
    assert cache_dir.is_dir() and len(os.listdir(cache_dir)) == 1
    series = read_series(out)
    assert len(series) == 500
    assert series.origin["system"] == "morse"


@pytest.mark.parametrize("system, key, value", [
    ("bjj", "bjj.u", "nan"),
    ("morse", "morse.alpha", "nan"),
    ("kerr", "t_start", "inf"),
])
def test_non_finite_config_values_exit_one_naming_line_and_key(tmp_path, capsys, system, key,
                                                                value):
    cfg = write_cfg(tmp_path, f"system = {system}\nn_samples = 100\n{key} = {value}\n")
    assert main(["simulate", cfg, "-o", str(tmp_path / "out.csv")]) == 1
    assert f"run.cfg:3: '{key}' must be finite; got '{value}'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out.csv")


def test_morse_grid_size_is_not_a_run_file_key(tmp_path, capsys):
    """The grid serves x only, which 6000 points resolve for every preset."""
    cfg = write_cfg(tmp_path, "system = morse\nn_samples = 100\nmorse.n_points = 6000\n")
    assert main(["simulate", cfg, "-o", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: unknown key 'morse.n_points'\n"
    assert not os.path.exists(tmp_path / "out.csv")


@pytest.mark.parametrize("argv", [
    ["simulate", "{cfg}", "-o", "missing/series.csv"],
    ["analyze", "f1", "{series}", "-o", "missing/series.f1.csv"],
    ["repro", "fig3", "-d", "series.csv/out"],
])
def test_unwritable_output_exits_one_naming_the_requested_path(tmp_path, capsys,
                                                               monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, KERR_CFG)
    series = str(tmp_path / "series.csv")
    write_series(series, TimeSeries(np.sin(np.arange(2000) / 7.0), 1.0))
    before = sorted(os.listdir(tmp_path))
    assert main([arg.format(cfg=cfg, series=series) for arg in argv]) == 1
    reason = "Not a directory" if argv[0] == "repro" else "No such file or directory"
    assert capsys.readouterr().err == f"error: cannot write {argv[-1]}: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("n_atoms", [0, 1, -3])
def test_too_few_atoms_exit_one_without_traceback(tmp_path, capsys, n_atoms):
    cfg = write_cfg(tmp_path, f"system = bjj\nn_samples = 50\nbjj.n_atoms = {n_atoms}\n")
    assert main(["simulate", cfg, "-o", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: n_atoms must be >= 2\n"
    assert not os.path.exists(tmp_path / "out.csv")


# ------------------------------------------------------------ import budget

#: What `import qnldyn.cli` loads of the package: the modules every command uses.
CLI_MODULES = {"qnldyn", "qnldyn.cli", "qnldyn.config", "qnldyn.errors", "qnldyn.series",
               "qnldyn.seriesio"}

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qnldyn.__file__)))


def loaded_after(code: str, cwd) -> set:
    """Modules a fresh interpreter holds after running `code`."""
    script = f"import sys\n{code}\nprint(repr(sorted(sys.modules)))"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True)
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def within(modules: set, *packages: str) -> set:
    """The modules that are one of `packages` or inside one."""
    return {m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)}


@pytest.mark.parametrize("code, expected", [
    ("import qnldyn\nqnldyn.__version__", {"qnldyn"}),
    ("import qnldyn.tsa", {"qnldyn", "qnldyn.tsa"}),
    ("import qnldyn.cli", CLI_MODULES),
])
def test_imports_load_no_scipy_and_no_unused_module(tmp_path, code, expected):
    modules = loaded_after(code, tmp_path)
    assert within(modules, "qnldyn") == expected
    assert not within(modules, "scipy")


def test_cli_import_builds_no_conversion_table(tmp_path):
    loaded_after("import qnldyn.cli\nfrom qnldyn.seriesio import _tables\n"
                 "assert _tables.cache_info().currsize == 0", tmp_path)


def run_in_fresh_interpreter(argv, cwd) -> set:
    """Modules loaded by importing the CLI and running one command that must succeed."""
    return loaded_after(f"from qnldyn.cli import main\nassert main({argv!r}) == 0", cwd)


def test_analyze_f1_loads_no_scipy(tmp_path):
    path = str(tmp_path / "sine.csv")
    write_series(path, TimeSeries(np.sin(np.arange(2000) / 7.0), 1.0))
    modules = run_in_fresh_interpreter(["analyze", "f1", path], tmp_path)
    assert within(modules, "qnldyn") == CLI_MODULES | {"qnldyn.tsa", "qnldyn.tsa.returns"}
    assert not within(modules, "scipy")


#: System -> (run text, its single-time path): state, evolution and a value.
SINGLE_TIME_PATHS = {
    "kerr": (KERR_CFG, """\
from qnldyn.fock import coherent_state, inner, quadrature_moment
from qnldyn.kerr import KerrParams, evolve_kerr
state = coherent_state(3.0)
later = evolve_kerr(state, KerrParams(chi=1.0), 0.3)
assert quadrature_moment(later, "x", 2) > 0 and 0 < abs(inner(state, later)) < 1"""),
    "bjj": (BJJ_CFG, """\
from qnldyn.bjj import BJJParams, build_bjj, evolve_bjj, su2_coherent
state = su2_coherent(1.0, 0.5, 20)
later = evolve_bjj(state, build_bjj(BJJParams.from_u(20, 50.0)), 0.3)
overlap = abs(state.amplitudes.conj() @ later.amplitudes)
assert abs(later.norm() - 1.0) < 1e-12 and 0 < overlap < 1"""),
    "morse": ("system = morse\nn_samples = 3000\n", """\
from qnldyn.morse import (MORSE_PRESETS, build_eigenbasis, evolve_morse, morse_autocorrelation,
                          perelomov_state)
state = perelomov_state(0.4, build_eigenbasis(MORSE_PRESETS["default"]))
later = evolve_morse(state, 0.3)
assert abs(later.norm() - 1.0) < 1e-12 and 0 < abs(morse_autocorrelation(state, 0.3)) < 1"""),
}


@pytest.mark.parametrize("system", sorted(SINGLE_TIME_PATHS))
def test_simulate_and_single_time_path_load_no_scipy(tmp_path, monkeypatch, system):
    """`simulate`, `analyze f1` of its series and the system's single-time
    path, run in one interpreter, load the system's modules, the spectral
    kernel and the f1 step, and no scipy module."""
    monkeypatch.delenv("QNLDYN_CACHE_DIR", raising=False)
    text, single_time_path = SINGLE_TIME_PATHS[system]
    cfg = write_cfg(tmp_path, text)
    path = str(tmp_path / f"{system}.csv")
    code = f"""\
from qnldyn.cli import main
assert main(["simulate", {cfg!r}, "-o", {path!r}]) == 0
assert main(["analyze", "f1", {path!r}]) == 0
{single_time_path}"""
    modules = loaded_after(code, tmp_path)
    assert within(modules, "qnldyn") == CLI_MODULES | {
        "qnldyn.fock", f"qnldyn.{system}", "qnldyn.spectral", "qnldyn.tsa", "qnldyn.tsa.returns"}
    assert not within(modules, "scipy")


@pytest.mark.parametrize("module", ["qnldyn.bjj", "qnldyn.morse"])
def test_system_module_import_loads_no_scipy(tmp_path, module):
    """Importing bjj or morse on its own loads no scipy module."""
    assert not within(loaded_after(f"import {module}", tmp_path), "scipy")


def test_bjj_simulate_loads_no_sparse_matrices(tmp_path):
    cfg = write_cfg(tmp_path, BJJ_CFG.replace("n_samples = 3000", "n_samples = 200"))
    modules = run_in_fresh_interpreter(["simulate", cfg, "-o", str(tmp_path / "b.csv")],
                                       tmp_path)
    assert "qnldyn.spectral" in modules
    assert not within(modules, "scipy")


def test_only_tsa_imports_scipy():
    """No module outside qnldyn/tsa imports scipy, at module level or inside a
    function."""
    package = Path(qnldyn.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if package / "tsa" in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(package)}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert not found


def test_analyze_lyap_loads_only_the_lyapunov_module(tmp_path):
    """No system module, so nothing of qnldyn's own asks for `scipy.special`.
    scipy still loads it: importing `scipy.spatial`, the home of cKDTree,
    imports `scipy.special` and `scipy.linalg`."""
    path = str(tmp_path / "logistic.csv")
    write_series(path, logistic_series(3000))
    modules = run_in_fresh_interpreter(
        ["analyze", "lyap", path, "--m", "3", "--epsilon", "0.05", "--t-max", "20"], tmp_path)
    assert within(modules, "qnldyn") == CLI_MODULES | {"qnldyn.tsa", "qnldyn.tsa.embedding",
                                                      "qnldyn.tsa.lyapunov"}
    assert within(modules, "scipy.spatial")


# ------------------------------------------------------------ lazy exports

#: The package exports as they stood when the packages imported every
#: submodule eagerly: defining module -> names.
QNLDYN_EXPORTS = {
    "qnldyn.errors": ("ConfigError", "GridResolutionError", "NeighborhoodError",
                      "NormalizationError", "NumericalContractError", "TruncationError"),
    "qnldyn.fock": ("FockVector", "SuperpositionSpec", "choose_cutoff", "coherent_state",
                    "inner", "norm", "quadrature_moment", "superpose_coherent"),
    "qnldyn.bjj": ("BJJOperatorSet", "BJJParams", "SpinState", "bloch_series", "build_bjj",
                   "evolve_bjj", "make_initial", "su2_coherent"),
    "qnldyn.config": ("RunConfig", "load_config", "parse_config_text"),
    "qnldyn.kerr": ("KerrParams", "evolve_kerr", "kerr_series", "revival_period",
                    "xsq_closed_form"),
    "qnldyn.morse": ("MORSE_PRESETS", "MorseEigenbasis", "MorseParams", "MorseState",
                     "build_eigenbasis", "cached_eigenbasis", "default_grid", "evolve_morse",
                     "morse_autocorrelation", "morse_moments_series",
                     "morse_revival_period", "perelomov_state", "superpose_morse"),
    "qnldyn.series": ("SamplingPlan", "TimeSeries", "normalize_series"),
    "qnldyn.seriesio": ("read_series", "write_series"),
}
QNLDYN_SUBMODULES = ("bjj", "config", "errors", "fock", "kerr", "morse", "series",
                     "seriesio", "spectral")

TSA_EXPORTS = {
    "qnldyn.tsa.embedding": ("EmbeddedSeries", "autocorr_delay", "delay_embed"),
    "qnldyn.tsa.lyapunov": ("LyapunovCurve", "LyapunovScan", "auto_fit_window", "fit_slope",
                            "lyapunov_curve", "lyapunov_scan"),
    "qnldyn.tsa.recurrence": ("RecurrenceData", "diagonal_line_lengths", "diagonal_profile",
                              "diagonal_spacings", "dominant_peak_count",
                              "mean_diagonal_length", "recurrence_plot"),
    "qnldyn.tsa.returns": ("ReturnTimeHistogram", "exponential_fit",
                           "return_time_histogram"),
    "qnldyn.tsa.synthetic": ("logistic_series", "quasiperiodic_series", "sine_series"),
}
TSA_SUBMODULES = ("embedding", "lyapunov", "recurrence", "returns", "synthetic")


@pytest.mark.parametrize("package, exports, submodules", [
    ("qnldyn", QNLDYN_EXPORTS, QNLDYN_SUBMODULES),
    ("qnldyn.tsa", TSA_EXPORTS, TSA_SUBMODULES),
])
def test_lazy_exports_resolve_to_their_defining_objects(package, exports, submodules):
    pkg = importlib.import_module(package)
    names = [name for group in exports.values() for name in group]
    assert set(pkg.__all__) == {*names, *submodules}
    assert set(pkg.__all__) <= set(dir(pkg))
    for module, group in exports.items():
        for name in group:
            assert getattr(pkg, name) is getattr(importlib.import_module(module), name)
    for sub in submodules:
        assert getattr(pkg, sub) is importlib.import_module(f"{package}.{sub}")
    star: dict = {}
    exec(f"from {package} import *", star)
    assert {*names, *submodules} <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pkg, "no_such_name")


# ------------------------------------------------------------ worker threads

#: A 2e4-sample morse <x> series.
SPIN_MORSE_CFG = ("system = morse\nobservable = x\ndt = 0.01\nn_samples = 20000\n"
                  "morse.alpha = 0.4\nmorse.ell = 2\n")

#: The bench's bjj <Lx> problem up to its series: bjj's eigensolve and its
#: 41-level complex rotation are threaded LAPACK and BLAS calls that wake the
#: workers themselves, so the setup sleeps past their spin.
SPIN_BJJ_SETUP = """\
ops = bjj.build_bjj(bjj.BJJParams.from_u(40, 50))
energies, vectors = ops.eigensystem()
op = vectors.conj().T @ ops.lx @ vectors
modes = vectors.conj().T @ bjj.make_initial('even', 40).amplitudes
time.sleep(0.5)"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="a BLAS worker needs a second CPU to spin on")
def test_no_blas_worker_spins_after_a_series_or_the_morse_basis(tmp_path, monkeypatch):
    """OpenBLAS threads a GEMM past 2^18 multiply-adds, and after such a call
    returns its idle workers spin for about 0.12 s of CPU.  In a fresh
    interpreter, neither `simulate` of a morse series, nor a 2e4-sample bjj
    series once its eigenbasis is set up, nor the Morse eigenbasis and
    position matrix leave that spin behind: the process uses under 0.02 s of
    CPU across a 0.3 s sleep after each.  bjj's `simulate` is not timed whole,
    because its own eigensolve and rotation leave the spin; a series long
    enough to outlast it would race the host's speed."""
    monkeypatch.delenv("QNLDYN_CACHE_DIR", raising=False)
    cfg = write_cfg(tmp_path, SPIN_MORSE_CFG, "morse.cfg")
    runs = {
        "morse": f"main(['simulate', {cfg!r}, '-o', {str(tmp_path / 'morse')!r}])",
        "bjj": "spectral.sample(energies, modes, op, 0.02 * np.arange(20000))",
        "basis": "morse.position_matrix(morse.build_eigenbasis(morse.MORSE_PRESETS['default']))",
    }
    code = "\n".join([
        "import time",
        "import numpy as np",
        "from qnldyn import bjj, morse, spectral",
        "from qnldyn.cli import main",
        SPIN_BJJ_SETUP,
        "tails = {}",
        *(f"{call}\nstart = time.process_time()\ntime.sleep(0.3)\n"
          f"tails[{name!r}] = time.process_time() - start" for name, call in runs.items()),
        "print(tails)",
    ])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, check=True)
    tails = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert all(seconds < 0.02 for seconds in tails.values()), tails
