"""Run-file parsing and on-disk formats: full-precision round trips."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from qnldyn import seriesio
from qnldyn.config import RunConfig, load_config, parse_config_text
from qnldyn.errors import ConfigError
from qnldyn.series import TimeSeries
from qnldyn.seriesio import (
    read_series,
    write_f1_histogram,
    write_lyapunov_curve,
    write_recurrence_bitmap,
    write_recurrence_pairs,
    write_series,
)
from qnldyn.tsa.recurrence import RecurrenceData

FULL_CONFIG = """\
# a full run file
system = kerr
observable = x^2
t_start = 0.1
dt = 0.008           # resolves the fastest interference phase
n_samples = 1000
output = run.csv
kerr.chi = 1.0
kerr.chi_prime_ratio = 1e-3
kerr.alpha_sq = 25
kerr.ell = 2
"""


# ------------------------------------------------------------------ config


def test_parse_full_config():
    cfg = parse_config_text(FULL_CONFIG)
    assert cfg.system == "kerr"
    assert cfg.observable == "x^2"
    assert cfg.t_start == 0.1
    assert cfg.dt == 0.008
    assert cfg.n_samples == 1000
    assert cfg.output == "run.csv"
    assert cfg.params == {
        "chi": 1.0,
        "chi_prime_ratio": 1e-3,
        "alpha_sq": 25.0,
        "ell": 2,
    }


def test_flat_items_echo_resolved_values():
    cfg = parse_config_text(FULL_CONFIG)
    items = dict(cfg.flat_items())
    assert items["system"] == "kerr"
    assert items["kerr.alpha_sq"] == 25.0


def test_per_system_observable_defaults():
    assert parse_config_text("system=kerr").observable == "x^2"
    assert parse_config_text("system=morse").observable == "x"
    assert parse_config_text("system=bjj").observable == "lx"


def test_unknown_key_named_with_line():
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key 'kerr\.bogus'"):
        parse_config_text("system=kerr\nkerr.bogus = 1\n", source="run.cfg")
    with pytest.raises(ConfigError, match=r":1: unknown key 'colour'"):
        parse_config_text("colour = red\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'rp\.epsilon'"):
        parse_config_text("system=kerr\nrp.epsilon = 0.05\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=r":3: duplicate key 'dt'"):
        parse_config_text("system=kerr\ndt=0.1\ndt=0.2\n")


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError, match=r":1: expected key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match=r":2: empty key or value"):
        parse_config_text("system=kerr\ndt =\n")
    with pytest.raises(ConfigError, match=r":1: bad value for 'dt'"):
        parse_config_text("dt = fast\n")


def test_wrong_system_section_rejected():
    with pytest.raises(ConfigError, match="belongs to system 'morse'"):
        parse_config_text("system=kerr\nmorse.alpha = 0.4\n")


def test_missing_or_unknown_system():
    with pytest.raises(ConfigError, match="missing required key 'system'"):
        parse_config_text("dt = 0.1\n")
    with pytest.raises(ConfigError, match="system must be one of"):
        parse_config_text("system = duffing\n")


def test_top_level_bounds():
    with pytest.raises(ConfigError, match="dt must be positive"):
        parse_config_text("system=kerr\ndt = -0.1\n")
    with pytest.raises(ConfigError, match="n_samples must be at least 2"):
        parse_config_text("system=kerr\nn_samples = 1\n")


def test_load_config_reports_path(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("system = kerr\nkerr.chi = soft\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        load_config(str(path))
    good = tmp_path / "good.cfg"
    good.write_text("system = bjj\nbjj.n_atoms = 40\nbjj.u = 50\n")
    cfg = load_config(str(good))
    assert cfg.system == "bjj"
    assert cfg.params == {"n_atoms": 40, "u": 50.0}


# ------------------------------------------------------------------ series io


def test_series_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    values = rng.standard_normal(257) * np.exp(rng.uniform(-30, 30, 257))
    series = TimeSeries(values, 0.0125, {"system": "kerr", "observable": "x^2"})
    path = str(tmp_path / "series.csv")
    write_series(path, series)
    back = read_series(path)
    assert np.array_equal(back.values, series.values)  # 17 digits: exact floats
    assert back.dt == series.dt
    assert back.origin["system"] == "kerr"
    assert back.origin["observable"] == "x^2"


EDGE_FLOATS = np.array(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
     1.7976931348623157e308, -1.7976931348623157e308, 1.0 + 2.0**-52]
)


@settings(max_examples=150, deadline=None)
@given(
    values=arrays(
        float,
        st.integers(2, 60),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    dt=st.floats(min_value=1e-300, max_value=1e300),
)
@example(values=EDGE_FLOATS, dt=5e-324)
def test_series_round_trip_is_bit_exact_for_any_finite_float(
    tmp_path_factory, values, dt
):
    path = str(tmp_path_factory.mktemp("series") / "s.csv")
    write_series(path, TimeSeries(values, dt))
    back = read_series(path)
    assert np.array_equal(back.values.view(np.int64), values.view(np.int64))
    assert back.dt == dt


def test_read_series_spans_several_chunks_and_skips_blank_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(seriesio, "_READ_CHUNK", 64)
    rows = ["1.5", "", "  -2.25\t", "3e-300", "\r", "4"] * 40
    path = tmp_path / "s.csv"
    path.write_text("# dt=0.5\n\n# note\n" + "\n".join(rows) + "\n\n")
    back = read_series(str(path))
    assert_allclose(back.values, [1.5, -2.25, 3e-300, 4.0] * 40, rtol=0.0, atol=0.0)
    assert back.dt == 0.5
    lines = ["# dt=0.5"] + rows
    lines[203] = "1.0 2.0"  # file line 204, in a late chunk
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"s\.csv:204: not a number: '1\.0 2\.0'"):
        read_series(str(path))


def test_series_write_leaves_no_temp_files(tmp_path):
    series = TimeSeries(np.arange(5.0), 1.0)
    path = str(tmp_path / "out.csv")
    write_series(path, series)
    write_series(path, series)  # overwrite in place
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


def test_read_series_errors(tmp_path):
    no_dt = tmp_path / "no_dt.csv"
    no_dt.write_text("# system=kerr\n1.0\n2.0\n")
    with pytest.raises(ValueError, match="lacks the required dt"):
        read_series(str(no_dt))

    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("# dt=0.1\n1.0\n2.0\nnot-a-number\n")
    with pytest.raises(ValueError, match=r"bad_row\.csv:4: not a number"):
        read_series(str(bad_row))

    short = tmp_path / "short.csv"
    short.write_text("# dt=0.1\n1.0\n")
    with pytest.raises(ValueError, match="fewer than two"):
        read_series(str(short))

    bad_dt = tmp_path / "bad_dt.csv"
    bad_dt.write_text("# dt=soon\n1.0\n2.0\n")
    with pytest.raises(ValueError, match="dt is not a number"):
        read_series(str(bad_dt))


def test_f1_histogram_file(tmp_path):
    from qnldyn.tsa.returns import return_time_histogram

    rng = np.random.default_rng(2)
    series = TimeSeries(rng.random(20000), 0.5)
    hist = return_time_histogram(series, 0.02)
    path = str(tmp_path / "hist.csv")
    write_f1_histogram(path, hist)
    header = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key] = value
            else:
                rows.append(line.strip().split(","))
    assert float(header["mean_tau"]) == hist.mean_tau
    assert float(header["mu_fit"]) == hist.mu_fit
    assert float(header["mu_per_time"]) == hist.mu_per_time
    assert int(header["n_returns"]) == len(hist.return_times)
    assert header["columns"] == "tau,count"
    counts = np.array([int(c) for _, c in rows])
    assert counts.sum() == len(hist.return_times)


def test_recurrence_outputs(tmp_path, dense):
    from qnldyn.tsa import delay_embed, recurrence_plot

    series = TimeSeries(np.sin(2.0 * np.pi * np.arange(400) / 20.0), 1.0)
    rec = recurrence_plot(delay_embed(series, 2, 5), 0.2, (0, 200))

    pairs_path = str(tmp_path / "rec.pairs.csv")
    write_recurrence_pairs(pairs_path, rec)
    with open(pairs_path) as fh:
        rows = [l for l in fh if not l.startswith("#")]
    assert len(rows) == rec.n_pairs
    i0, j0 = map(int, rows[0].split(","))
    assert rec.contains(i0, j0)

    pbm_path = str(tmp_path / "rec.pbm")
    write_recurrence_bitmap(pbm_path, rec)
    with open(pbm_path, "rb") as fh:
        raw = fh.read()
    assert raw.startswith(b"P4\n")
    dims = raw.split(b"\n", 2)[1].split()
    assert [int(d) for d in dims] == [rec.n_points, rec.n_points]
    payload = raw.split(b"\n", 2)[2]
    n = rec.n_points
    bits = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8).reshape(n, -1), axis=1
    )[:, :n].astype(bool)
    # file row r holds plot row j = n - 1 - r (origin at the lower left)
    assert np.array_equal(bits[::-1].T, dense(rec))


# Window sizes at the edges of the decimal width (9|10, 99|100, 999|1000)
# and of the packed byte (7|8|9 pixels per row).
EDGE_WINDOWS = (1, 7, 8, 9, 10, 11, 99, 100, 101, 1000, 1001)


def _oracle_pairs(rec, metadata=None):
    """Pair-file bytes as formatted one row at a time, by f-string."""
    meta = {
        "n_points": int(rec.n_points),
        "epsilon": float(rec.epsilon),
        "window_start": int(rec.window_start),
        "n_pairs": int(rec.n_pairs),
        "recurrence_rate": float(rec.recurrence_rate()),
    }
    if metadata:
        meta.update(metadata)
    lines = seriesio._header_lines(meta)
    lines.append("# columns=i,j")
    lines.extend(f"{i},{j}" for i, j in zip(rec.ii, rec.jj))
    return ("\n".join(lines) + "\n").encode()


def _oracle_bitmap(rec, dense):
    """PBM bytes packed from the full bool matrix, flipped to a lower-left origin."""
    n = rec.n_points
    packed = np.packbits(dense(rec).T[::-1, :], axis=1)
    return f"P4\n{n} {n}\n".encode() + packed.tobytes()


@st.composite
def recurrence_data(draw):
    n = draw(st.sampled_from(EDGE_WINDOWS))
    index = st.integers(0, n - 1)
    drawn = draw(st.lists(st.tuples(index, index), max_size=300))
    keys = np.unique([i * n + j for i, j in drawn if i < j]).astype(np.int64)
    return RecurrenceData(n, 0.25, keys // n, keys % n, window_start=draw(index))


def _assert_writers_match_oracles(tmp_path, rec, dense):
    pairs_path = tmp_path / "rec.pairs.csv"
    write_recurrence_pairs(str(pairs_path), rec, {"system": "morse"})
    assert pairs_path.read_bytes() == _oracle_pairs(rec, {"system": "morse"})
    pbm_path = tmp_path / "rec.pbm"
    write_recurrence_bitmap(str(pbm_path), rec)
    assert pbm_path.read_bytes() == _oracle_bitmap(rec, dense)


@settings(max_examples=80, deadline=None)
@given(rec=recurrence_data())
def test_recurrence_writers_match_row_and_dense_oracles(tmp_path_factory, dense, rec):
    _assert_writers_match_oracles(tmp_path_factory.mktemp("rec"), rec, dense)


@pytest.mark.parametrize("n", EDGE_WINDOWS)
def test_recurrence_writers_on_empty_pair_sets(tmp_path, dense, n):
    empty = np.empty(0, dtype=np.int64)
    _assert_writers_match_oracles(tmp_path, RecurrenceData(n, 0.25, empty, empty), dense)


def test_recurrence_writers_span_several_blocks(tmp_path, dense):
    n = 1000
    rng = np.random.default_rng(23)
    keys = np.sort(rng.choice(n * n, size=300_000, replace=False))
    ii, jj = keys // n, keys % n
    keep = ii < jj
    rec = RecurrenceData(n, 0.25, ii[keep], jj[keep])
    assert rec.n_pairs > 2 * seriesio._PAIR_BLOCK
    _assert_writers_match_oracles(tmp_path, rec, dense)


def test_bitmap_memory_stays_at_the_packed_image(tmp_path):
    n = 16384
    rng = np.random.default_rng(29)
    ii = rng.integers(0, n - 1, 4000)
    jj = ii + rng.integers(1, n - ii)
    keys = np.unique(ii * n + jj)
    rec = RecurrenceData(n, 0.1, keys // n, keys % n)
    image_bytes = n * ((n + 7) // 8)
    tracemalloc.start()
    try:
        write_recurrence_bitmap(str(tmp_path / "big.pbm"), rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense bool matrix alone would take n**2 = 268 MB
    assert peak < 2 * image_bytes + 8 * 2**20
    assert os.path.getsize(tmp_path / "big.pbm") == len(f"P4\n{n} {n}\n") + image_bytes


def test_atomic_write_failure_keeps_old_file(tmp_path):
    path = tmp_path / "out.pbm"
    path.write_bytes(b"old contents")
    with pytest.raises(TypeError):
        seriesio._atomic_write(str(path), b"new header", object())
    assert path.read_bytes() == b"old contents"
    assert sorted(os.listdir(tmp_path)) == ["out.pbm"]


def test_lyapunov_curve_file(tmp_path):
    from qnldyn.tsa import delay_embed, lyapunov_curve
    from qnldyn.tsa.lyapunov import fitted
    from qnldyn.tsa.synthetic import logistic_series

    emb = delay_embed(logistic_series(4000), 3, 1)
    curve = fitted(lyapunov_curve(emb, 0.02, theiler=6, t_max=40))
    path = str(tmp_path / "curve.csv")
    write_lyapunov_curve(path, curve)
    header = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key] = value
            else:
                rows.append([float(x) for x in line.split(",")])
    assert int(header["m"]) == 3
    assert float(header["epsilon"]) == 0.02
    assert float(header["lambda_max"]) == curve.lambda_max
    assert header["fit_window"] == f"{curve.fit_window[0]}:{curve.fit_window[1]}"
    data = np.array(rows)
    assert_allclose(data[:, 0], curve.t_offsets * curve.dt, atol=0.0)
    assert_allclose(data[:, 1], curve.s_values, atol=0.0)


def test_run_config_dataclass_direct_use():
    cfg = RunConfig(
        system="bjj",
        observable="lx",
        t_start=0.0,
        dt=0.02,
        n_samples=100,
        output="x.csv",
        params={"n_atoms": 10, "u": 50.0},
    )
    items = dict(cfg.flat_items())
    assert items["bjj.u"] == 50.0
