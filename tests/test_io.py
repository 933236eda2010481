"""Run-file parsing and on-disk formats: full-precision round trips."""

import contextlib
from decimal import Decimal
import io
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from qnldyn import config, seriesio
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


@pytest.mark.parametrize("line", [
    "t_start = inf", "dt = nan", "dt = -inf", "kerr.alpha_sq = 1e999",
    "kerr.chi = NaN", "kerr.chi_prime_ratio = -1e400",
])
def test_non_finite_float_values_rejected_with_line_and_key(line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"run\.cfg:2: '{re.escape(key)}' must be finite"):
        parse_config_text(f"system = kerr\n{line}\n", source="run.cfg")


#: Every key the parser knows, top level and per system.
KNOWN_KEYS = sorted([*config._TOP_KEYS,
                     *(f"{section}.{key}" for section, table in config._SECTION_KEYS.items()
                       for key in table)])

config_values = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "1e-400", "kerr", "morse", "bjj", "x", "0", "-1"]),
)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_parse_config_text_raises_only_config_error_on_any_text(text):
    with contextlib.suppress(ConfigError):
        parse_config_text(text)


@settings(max_examples=200, deadline=None)
@given(
    system=st.one_of(st.none(), st.sampled_from(["kerr", "morse", "bjj"])),
    lines=st.lists(st.tuples(st.sampled_from(KNOWN_KEYS), config_values), max_size=8),
)
def test_parse_config_text_raises_only_config_error_on_known_keys(system, lines):
    """Arbitrary values under real keys either parse to finite floats or
    raise ConfigError; nothing else escapes the parser."""
    header = [] if system is None else [f"system = {system}"]
    text = "\n".join(header + [f"{key} = {value}" for key, value in lines])
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    floats = [cfg.t_start, cfg.dt, *(v for v in cfg.params.values() if isinstance(v, float))]
    assert all(math.isfinite(v) for v in floats)


def test_load_config_reports_path(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("system = kerr\nkerr.chi = soft\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        load_config(str(path))
    good = tmp_path / "good.cfg"
    good.write_text("system = bjj\nbjj.n_atoms = 40\nbjj.u = 50\n")
    cfg = load_config(str(good))
    assert cfg.system == "bjj"
    assert cfg.params == {"n_atoms": 40, "u": 50.0, "state": "even"}


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

    for dt in ("inf", "-0.1", "nan", "0"):
        bad_dt.write_text(f"# dt={dt}\n1.0\n2.0\n")
        message = rf"bad_dt\.csv: dt must be finite and positive: '{dt}'"
        with pytest.raises(ValueError, match=message):
            read_series(str(bad_dt))

    for row in ("nan", "inf", "-inf", "1e999"):
        bad_row.write_text(f"# dt=0.1\n1.0\n\n{row}\n2.0\n")
        with pytest.raises(ValueError, match=rf"bad_row\.csv:4: not a finite number: '{row}'"):
            read_series(str(bad_row))


# ------------------------------------------------------------------ float columns
#
# The series CSV converts whole blocks of rows with numpy; these tests hold
# the converters to the per-value conversions they replace, and run again
# on numpy's scalar loops in CI (np.log10, np.floor and exact float operations).


def _assert_rows_are_g17(values, tail=b"\n"):
    values = np.asarray(values, dtype=float)
    rows = seriesio._text(seriesio._float_rows(values, tail)).split(tail)
    assert rows[:-1] == [b"%.17g" % v for v in values.tolist()]
    assert rows[-1] == b""


#: Round numbers (trailing zeros and a bare point to drop), the edges of %g's
#: fixed notation (1e-4 and 1e16 against their neighbours), values rounding up
#: into the next decade, integers beyond 2**53, exact 18-digit ties (2**-25 =
#: 2.98023223876953125e-8 rounds half to even), and two values whose 17-digit
#: scaling lies 2**-52 and 2**-51 above a tie, inside double-double's error.
WRITER_EDGES = [
    2.2422607587866907e-07, 3.888475069819475e-07,
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1.0, -1.0, 10.0, 100.0, 12345.0, 0.5, 1e-4, 9.99999999999999999e-5, 1e-5,
    0.00099999999999999999, 99999.99999999999, 1e16, 1e17, 9.9999999999999999e16,
    2.0**53 - 1, 2.0**53 + 1, 2.0**53 + 2, 1e22, 1e23, 123456789012345678.0, 0.1,
    0.30000000000000004, 2.0**-25, 3 * 2.0**-25, -(2.0**-25), 1e-250, 1e250,
    9.999999999999999e249, math.pi * 1e-300, math.inf, -math.inf, math.nan,
]


@pytest.mark.baseline_kernels
@pytest.mark.parametrize("tail", [b"\n", b","])
def test_float_writer_matches_g17_on_edges(tail):
    _assert_rows_are_g17(WRITER_EDGES, tail)
    _assert_rows_are_g17(np.negative(WRITER_EDGES), tail)


@pytest.mark.baseline_kernels
@pytest.mark.parametrize("skew", [-1e-9, 1e-9])
def test_float_writer_corrects_a_log10_that_errs_either_way(skew):
    decades = 10.0 ** np.arange(-30, 31)
    values = np.concatenate((decades, np.nextafter(decades, 0), np.nextafter(decades, 1e300)))
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda a: log10(a) + skew):
        _assert_rows_are_g17(values)
        _assert_rows_are_g17(WRITER_EDGES)


@pytest.mark.baseline_kernels
@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=50),
       bits=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
def test_float_writer_matches_g17_per_row(values, bits):
    _assert_rows_are_g17(values)
    _assert_rows_are_g17(np.array(bits, dtype=np.int64).view(np.float64))


@pytest.mark.baseline_kernels
def test_float_writer_matches_g17_on_random_bits_and_decades():
    rng = np.random.default_rng(37)
    _assert_rows_are_g17(rng.integers(-(2**63), 2**63 - 1, 20000).view(np.float64))
    _assert_rows_are_g17(rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 30, 20000))
    # short decimals: integers scaled down, where trailing zeros are dropped
    scaled = np.round(rng.standard_normal(20000) * 1e6) / 10.0 ** rng.integers(0, 9, 20000)
    _assert_rows_are_g17(scaled)
    # exact ties: j * 2**-k with j odd has the digits of j * 5**k, the last a 5;
    # with 18 of them, %.17g rounds half to even
    ties = []
    for k in range(3, 26):
        j = rng.integers(-(-10**17 // 5**k), min(10**18 // 5**k, 2**53), 200) | 1
        ties += [v for v in np.ldexp(j.astype(float), -k).tolist()
                 if len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 1000
    _assert_rows_are_g17(ties + [-v for v in ties])


def _parse_lines(body: bytes) -> np.ndarray:
    """The values of body's non-blank lines as one numpy conversion gives them."""
    return np.array(list(filter(bytes.strip, body.split(b"\n"))), dtype=float)


def _assert_reads_as_lines(tmp_path, body: bytes):
    path = tmp_path / "rows.csv"
    path.write_bytes(b"# dt=0.5\n" + body)
    values = read_series(str(path)).values
    expected = _parse_lines(body)
    assert values.shape == expected.shape
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))


#: Every row syntax the reader takes: blanks around a number, blank lines,
#: CR, signs, exponents, underscores, bare points, leading zeros, -0, rows
#: longer than the in-place parse, and decimals at or near a midpoint between
#: two doubles (9007199254740993 lies half way between 2**53 and 2**53 + 2).
READER_ROWS = [
    "1.5", "  -2.25\t", "", "\r", "4\r", "+1", "1e5", "-2.5E+3", "1_0", ".5", "5.", "-.5",
    "-0", "-0.0", "0", "000012.50", "9007199254740993", "-9007199254740995",
    "18014398509481986", "4503599627370497.5", "0.30000000000000004",
    "1.00000000000000011102230246251565404236316680908203125",
    "123456789012345678901234567890", "0.000000000000000000000000000012",
    "2.2250738585072011e-308", "4.9406564584124654e-324", "1.7976931348623157e+308",
]


@pytest.mark.baseline_kernels
@pytest.mark.parametrize("chunk", [64, 1 << 18])
def test_read_series_parses_every_row_syntax_as_the_line_parse(tmp_path, chunk):
    with mock.patch.object(seriesio, "_READ_CHUNK", chunk):
        _assert_reads_as_lines(tmp_path, ("\n".join(READER_ROWS * 7) + "\n").encode())
        _assert_reads_as_lines(tmp_path, "\n".join(READER_ROWS).encode())  # no final newline


@pytest.mark.baseline_kernels
def test_read_series_rounds_exact_ties_and_long_rows_as_the_line_parse(tmp_path):
    rng = np.random.default_rng(41)
    mid = 2**54 + 4 * rng.integers(0, 2**40, 3000) + 2  # half way between two doubles
    rows = [str(m + d) for m in mid.tolist() for d in (-1, 0, 1)]
    rows += [f"{m // 2}.5" for m in rng.integers(2**52, 2**53, 3000).tolist()]
    rows += [f"-0.{'0' * z}{d}" for z, d in zip(rng.integers(0, 12, 3000).tolist(),
                                               rng.integers(0, 10**18, 3000).tolist())]
    _assert_reads_as_lines(tmp_path, ("\n".join(rows) + "\n").encode())


@pytest.mark.baseline_kernels
@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.from_regex(r"-?[0-9]{1,26}(\.[0-9]{1,26})?", fullmatch=True),
    st.sampled_from(READER_ROWS),
), min_size=2, max_size=40), chunk=st.sampled_from([64, 1 << 18]))
def test_read_series_matches_the_line_parse_on_drawn_rows(tmp_path_factory, rows, chunk):
    body = ("\n".join(rows + ["1", "2"]) + "\n").encode()
    with mock.patch.object(seriesio, "_READ_CHUNK", chunk):
        _assert_reads_as_lines(tmp_path_factory.mktemp("rows"), body)


#: Rows float() rejects, some of which the in-place parse would take apart.
BAD_TOKENS = ["1.2.3", "--1", "1e", "-", ".", "-.", "5..", "1-2", "1 2", "0x10", "1__0", "_1",
              "1,5", "e5", "one", "++1", "1e5e5", "12345678901234567890.5.5"]


@pytest.mark.baseline_kernels
@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.sampled_from(READER_ROWS + [" ", "\t", " \r", "  \t  "]), max_size=60),
       at=st.integers(0, 60), token=st.sampled_from(BAD_TOKENS),
       pad=st.sampled_from(["", " ", "\t", "  "]), chunk=st.sampled_from([64, 1 << 18]))
def test_read_series_names_the_file_line_of_a_bad_row(tmp_path_factory, rows, at, token, pad,
                                                     chunk):
    at = min(at, len(rows))
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    bad = rows[:at] + [pad + token + pad] + rows[at:] + ["1", "2"]
    path.write_bytes(("# dt=0.5\n" + "\n".join(bad) + "\n").encode())
    with mock.patch.object(seriesio, "_READ_CHUNK", chunk):
        message = f"{path}:{at + 2}: not a number: {token!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_series(str(path))
        bad[at] = pad + pad
        _assert_reads_as_lines(path.parent, ("\n".join(bad) + "\n").encode())


def test_read_series_drops_blank_rows_without_the_line_parse(tmp_path):
    values = np.random.default_rng(53).standard_normal(10**5)
    rows = [b"%.17g" % v for v in values.tolist()]
    rows[1000:1000] = rows[5000:5000] = [b""]  # blank rows mid-chunk
    # a row ends 2 bytes before the first chunk's edge and two blank rows follow:
    # the first chunk ends with one and the second starts with the other
    ends = np.cumsum([len(r) + 1 for r in rows])
    k = int(np.searchsorted(ends, seriesio._READ_CHUNK - 1, side="right"))
    gap = seriesio._READ_CHUNK - 1 - int(ends[k - 1])
    filler = [b"0" * (gap - 1)] if gap else []
    rows[k:k] = filler + [b"", b""]
    rows[90000:90000] = [b"", b""]  # in a later chunk
    body = b"\n".join(rows) + b"\n"
    chunks = list(seriesio._row_chunks(io.BytesIO(body)))
    assert chunks[0].endswith(b"\n\n") and chunks[1].startswith(b"\n")
    expected = np.insert(values, k - 2, 0.0) if gap > 1 else values
    path = tmp_path / "s.csv"
    path.write_bytes(b"# dt=0.5\n" + body)
    back = read_series(str(path))
    assert np.array_equal(back.values.view(np.int64), expected.view(np.int64))
    # a whitespace-only row reads as a blank line
    path.write_bytes(b"# dt=0.5\n" + body.replace(b"\n\n", b"\n \n", 1))
    back = read_series(str(path))
    assert np.array_equal(back.values.view(np.int64), expected.view(np.int64))


def test_read_series_names_the_line_of_a_bad_row_in_an_in_place_chunk(tmp_path):
    lines = ["# dt=0.5"] + ["%.17g" % v for v in np.linspace(-3.0, 3.0, 999)]
    lines[700] = "1.2.3"  # file line 701
    path = tmp_path / "s.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"s\.csv:701: not a number: '1\.2\.3'"):
        read_series(str(path))


def test_series_round_trip_memory_stays_near_the_values(tmp_path):
    values = np.random.default_rng(43).standard_normal(10**6)
    series = TimeSeries(values, 0.01)
    path = str(tmp_path / "big.csv")
    tracemalloc.start()
    try:
        write_series(path, series)
        back = read_series(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values.view(np.int64), values.view(np.int64))
    # the read holds its chunks' values and their concatenation, 8 MB each;
    # formatting all rows at once held a Python float per value: 72 MB
    assert peak < 2 * values.nbytes + 8 * 2**20


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


@pytest.mark.baseline_kernels
def test_curve_and_histogram_rows_match_per_row_formatting(tmp_path):
    from qnldyn.tsa.lyapunov import LyapunovCurve
    from qnldyn.tsa.returns import ReturnTimeHistogram

    rng = np.random.default_rng(47)
    s_values = np.concatenate((rng.standard_normal(500) * 10.0 ** rng.integers(-9, 9, 500),
                               WRITER_EDGES))
    curve = LyapunovCurve(np.arange(s_values.size), s_values, 0.02, 3, 7, 42, 0.013, 900)
    write_lyapunov_curve(str(tmp_path / "curve.csv"), curve)
    rows = (tmp_path / "curve.csv").read_text().split("# columns=t,S\n")[1]
    assert rows == "".join(f"{'%.17g' % (t * curve.dt)},{'%.17g' % s}\n"
                           for t, s in zip(curve.t_offsets, curve.s_values))
    hist = ReturnTimeHistogram(0.01, rng.integers(1, 3000, 5000), 17.5, 0.25, dt=0.5)
    write_f1_histogram(str(tmp_path / "hist.csv"), hist)
    rows = (tmp_path / "hist.csv").read_text().split("# columns=tau,count\n")[1]
    taus, counts = np.unique(hist.return_times, return_counts=True)
    assert rows == "".join(f"{'%.17g' % t},{c}\n" for t, c in zip(taus, counts))


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
    lines = [f"# {key}={'%.17g' % value if isinstance(value, float) else value}"
             for key, value in meta.items()]
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
@given(rec=recurrence_data(), pair_block=st.sampled_from((1, 2, 3, seriesio._PAIR_BLOCK)))
def test_recurrence_writers_match_row_and_dense_oracles(tmp_path_factory, dense, rec,
                                                        pair_block):
    with mock.patch.object(seriesio, "_PAIR_BLOCK", pair_block):
        _assert_writers_match_oracles(tmp_path_factory.mktemp("rec"), rec, dense)


@pytest.mark.parametrize("pair_block", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 9, 17])
def test_bitmap_bytes_add_bits_from_separate_blocks(tmp_path, dense, n, pair_block):
    # Every pair, then every other one: the first byte of plot row 3 takes
    # columns 0-2 from pairs (i, 3), 4-7 from the mirrors of (3, j) and 3 from
    # the diagonal, each added by its own np.add.at call at block size 1.
    ii, jj = np.triu_indices(n, 1)
    with mock.patch.object(seriesio, "_PAIR_BLOCK", pair_block):
        for step in (1, 2):
            rec = RecurrenceData(n, 0.25, ii[::step], jj[::step])
            _assert_writers_match_oracles(tmp_path, rec, dense)


@pytest.mark.parametrize("pair_block", [1, 2, 7])
@pytest.mark.parametrize("n", [10, 11, 1000, 1001, 1002])
def test_pair_rows_in_blocks_on_both_sides_of_the_full_width(tmp_path, dense, n, pair_block):
    # A block whose first i has the full width is written without the NUL pass;
    # the diagonal band gives every i pairs, so blocks start on both sides of it.
    ii, jj = np.triu_indices(n, 1)
    keep = (jj - ii <= 3) | (np.random.default_rng(n).random(ii.size) < 2e-3)
    rec = RecurrenceData(n, 0.25, ii[keep], jj[keep])
    first = rec.keys[::pair_block] // n
    full = 10 ** (len(str(n - 1)) - 1)
    assert (first < full).any()
    # i < j <= n - 1: at n = 11 and 1001 no i has the full width
    assert (first >= full).any() == (n - 2 >= full) or pair_block > 1
    with mock.patch.object(seriesio, "_PAIR_BLOCK", pair_block):
        _assert_writers_match_oracles(tmp_path, rec, dense)


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
        seriesio._atomic_write(str(path), [b"new header", object()])
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
    assert header["fit_window_clamped"] == str(curve.fit_window_clamped).lower()
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
