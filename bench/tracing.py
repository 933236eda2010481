"""Spans around qnldyn's public functions, recorded from outside the program.

`install` wraps each timed function where it is looked up: in its own
module and in every qnldyn module that imported it by name.  The
`cKDTree` name in `tsa.lyapunov` and `tsa.recurrence` is replaced by a
proxy that times tree builds apart from queries.  No program file is
edited; the wrappers only record while `Tracer.active` is set, so the
output checks can call the same functions unobserved.

A span records wall time, user and system CPU, and the rise of the
process's peak RSS (`ru_maxrss`) over its interval.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def usage() -> tuple[float, float, float]:
    """This process's user CPU s, system CPU s, and peak RSS in MB so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime, ru.ru_maxrss / 1024.0  # maxrss in KiB on Linux


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "user_s", "sys_s", "rss_rise_mb",
                 "counts")

    def __init__(self, sid, parent, name):
        self.id = sid
        self.parent = parent
        self.name = name
        self.counts = {}

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Span recorder; `spans` holds the finished spans of the current chain."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sp = Span(self._next_id, self._stack[-1].id if self._stack else None, name)
        self._next_id += 1
        self._stack.append(sp)
        u0, s0, r0 = usage()
        sp.t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            u1, s1, r1 = usage()
            sp.user_s, sp.sys_s, sp.rss_rise_mb = u1 - u0, s1 - s0, r1 - r0
            self._stack.pop()
            self.spans.append(sp)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _wrap(tracer: Tracer, fn, name: str, count=None):
    """fn inside a span `name`; count(arguments, result) -> dict of span counts."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if count is not None:
            sp.counts.update(count(_bound(fn, args, kwargs), result))
        return result
    return traced


def _patch(tracer: Tracer, module, attr: str, name: str, count=None) -> None:
    """Replace module.attr, and every by-name import of it, with a traced wrapper."""
    original = getattr(module, attr)
    traced = _wrap(tracer, original, name, count)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("qnldyn"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


class _TracedTree:
    """cKDTree stand-in: queries run inside spans, the rest passes through."""

    def __init__(self, tracer, tree, query_name):
        self._tracer, self._tree, self._query_name = tracer, tree, query_name

    def _query(self, method, *args, **kwargs):
        with self._tracer.span(self._query_name):
            return getattr(self._tree, method)(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        return self._query("query_ball_point", *args, **kwargs)

    def query_pairs(self, *args, **kwargs):
        return self._query("query_pairs", *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._tree, attr)


def _patch_tree(tracer: Tracer, module, build_name: str, query_name: str) -> None:
    real = module.cKDTree

    def traced_tree(data, *args, **kwargs):
        if not tracer.active:
            return real(data, *args, **kwargs)
        with tracer.span(build_name) as sp:
            tree = real(data, *args, **kwargs)
        sp.counts["points"] = len(data)
        return _TracedTree(tracer, tree, query_name)

    module.cKDTree = traced_tree


def _file_bytes(arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


def _level_samples(levels):
    def count(arguments, result):
        return {"level_samples": levels(arguments) * arguments["plan"].n_samples}
    return count


def _kerr_levels(arguments) -> int:
    """Levels the kerr kernel evolves: the cutoff padded by the moment order."""
    from qnldyn.kerr import parse_observable

    _, order = parse_observable(arguments["observable"])
    return arguments["state"].cutoff + 1 + order


def install(tracer: Tracer) -> None:
    """Wrap every timed qnldyn function where it is looked up."""
    import qnldyn.cli  # noqa: F401  loaded first, so its by-name imports are patched
    from qnldyn import bjj, config, fock, kerr, morse, series, seriesio
    from qnldyn.tsa import embedding, lyapunov, recurrence, returns

    targets = [
        (config, "load_config", "config.load", None),
        (fock, "coherent_state", "fock.state", None),
        (fock, "superpose_coherent", "fock.state", None),
        (kerr, "kerr_series", "kerr.series", _level_samples(_kerr_levels)),
        (bjj, "build_bjj", "bjj.build", None),
        (bjj, "make_initial", "bjj.build", None),
        (bjj.BJJOperatorSet, "eigensystem", "bjj.eigensystem", None),
        (bjj, "bloch_series", "bjj.series",
         _level_samples(lambda a: a["state"].dim)),
        (morse, "cached_eigenbasis", "morse.basis", None),
        (morse, "build_eigenbasis", "morse.basis", None),
        (morse, "perelomov_state", "morse.state", None),
        (morse, "superpose_morse", "morse.state", None),
        (morse, "position_matrix", "morse.operator", None),
        (morse, "momentum_matrix", "morse.operator", None),
        (morse, "morse_moments_series", "morse.series",
         _level_samples(lambda a: a["state"].coeffs.size)),
        (series, "normalize_series", "series.normalize", None),
        (seriesio, "write_series", "seriesio.write_series", _file_bytes),
        (seriesio, "read_series", "seriesio.read_series", _file_bytes),
        (seriesio, "write_recurrence_pairs", "seriesio.write_pairs", _file_bytes),
        (seriesio, "write_recurrence_bitmap", "seriesio.write_bitmap", _file_bytes),
        (seriesio, "write_f1_histogram", "seriesio.write_other", None),
        (seriesio, "write_lyapunov_curve", "seriesio.write_other", None),
        (embedding, "autocorr_delay", "embedding.delay", None),
        (embedding, "delay_embed", "embedding.embed", None),
        (returns, "return_time_histogram", "returns.histogram",
         lambda a, r: {"returns": len(r.return_times)}),
        (recurrence, "recurrence_plot", "recurrence.plot",
         lambda a, r: {"pairs": r.n_pairs, "window": r.n_points}),
        (recurrence, "diagonal_line_lengths", "recurrence.lines", None),
        (recurrence, "diagonal_spacings", "recurrence.lines", None),
        (recurrence, "dominant_peak_count", "recurrence.lines", None),
        (lyapunov, "lyapunov_scan", "lyapunov.scan", None),
        (lyapunov, "lyapunov_curve", "lyapunov.curve", None),
        (lyapunov, "fitted", "lyapunov.fit",
         lambda a, r: {"fitted": int(r.lambda_max is not None
                                     and math.isfinite(r.lambda_max))}),
    ]
    for owner, attr, name, count in targets:
        if isinstance(owner, type):  # a method, looked up on its class
            setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, count))
        else:
            _patch(tracer, owner, attr, name, count)
    _patch_tree(tracer, lyapunov, "lyapunov.tree_build", "lyapunov.neighbor_query")
    _patch_tree(tracer, recurrence, "recurrence.pair_search", "recurrence.pair_search")


#: Per-layer metrics of one traced chain: name -> unit.  "trace.*" and
#: "fail_rate" are filled in by the runner; every other value comes from
#: `chain_metrics`.  A layer a workload never calls reads 0.
PER_LAYER = {
    "cli.self_s": "s", "config.load_s": "s",
    "fock.state_s": "s",
    "kerr.calls": "count", "kerr.series_s": "s", "kerr.series_sys_s": "s",
    "kerr.level_samples": "count", "kerr.level_samples_per_s": "1/s",
    "bjj.calls": "count", "bjj.build_s": "s", "bjj.eigensystem_s": "s",
    "bjj.series_s": "s", "bjj.series_sys_s": "s", "bjj.level_samples": "count",
    "bjj.level_samples_per_s": "1/s",
    "morse.calls": "count", "morse.basis_s": "s", "morse.state_s": "s",
    "morse.operator_s": "s", "morse.series_s": "s", "morse.level_samples": "count",
    "morse.level_samples_per_s": "1/s",
    "series.normalize_s": "s",
    "seriesio.write_series_s": "s", "seriesio.read_series_s": "s",
    "seriesio.series_bytes": "bytes", "seriesio.series_mb_per_s": "MB/s",
    "seriesio.write_pairs_s": "s", "seriesio.pairs_bytes": "bytes",
    "seriesio.write_bitmap_s": "s", "seriesio.bitmap_bytes": "bytes",
    "seriesio.bitmap_rss_rise_mb": "MB", "seriesio.write_other_s": "s",
    "embedding.delay_s": "s", "embedding.embed_s": "s",
    "returns.calls": "count", "returns.histogram_s": "s", "returns.returns": "count",
    "recurrence.calls": "count", "recurrence.plot_s": "s",
    "recurrence.pair_search_s": "s", "recurrence.pairs": "count",
    "recurrence.window": "count", "recurrence.lines_s": "s",
    "lyapunov.calls": "count", "lyapunov.scan_s": "s", "lyapunov.curve_s": "s",
    "lyapunov.tree_build_s": "s", "lyapunov.neighbor_query_s": "s",
    "lyapunov.gather_s": "s", "lyapunov.fit_s": "s", "lyapunov.tree_builds": "count",
    "lyapunov.points_indexed": "count", "lyapunov.curves_attempted": "count",
    "lyapunov.curves_fitted_ratio": "ratio", "lyapunov.rss_rise_mb": "MB",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s", "trace.uncovered_ratio": "ratio", "fail_rate": "ratio",
}

#: Metrics aggregated over traced chains by their maximum, not their median:
#: a peak-RSS rise shows only in the chain that first reaches the peak.
PEAK_METRICS = ("seriesio.bitmap_rss_rise_mb", "lyapunov.rss_rise_mb")


def chain_metrics(spans: list[Span]) -> dict:
    """Per-layer values of one traced chain from its spans.

    A layer's time is the total duration of its spans, counting a span
    nested inside another of the same name once.  The chain's own self
    time is bench glue between commands: `trace.unattributed_s`.  The
    command spans' self time, `cli.self_s`, is the time inside commands
    that no wrapped function covers; `trace.uncovered_ratio` is its share
    of the chain.
    """
    by_id = {sp.id: sp for sp in spans}
    child_s = defaultdict(float)
    for sp in spans:
        if sp.parent in by_id:
            child_s[sp.parent] += sp.dur

    def outermost(name):
        out = []
        for sp in spans:
            if sp.name != name:
                continue
            up = by_id.get(sp.parent)
            while up is not None and up.name != name:
                up = by_id.get(up.parent)
            if up is None:
                out.append(sp)
        return out

    def secs(name):
        return sum(sp.dur for sp in outermost(name))

    def total(name, key):
        return sum(sp.counts.get(key, 0) for sp in spans if sp.name == name)

    def calls(name):
        return len(outermost(name))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def self_s(sp):
        return sp.dur - child_s[sp.id]

    m = {}
    m["cli.self_s"] = sum(self_s(sp) for sp in spans if sp.name.startswith("cli."))
    for name in ("config.load", "fock.state", "kerr.series", "bjj.build",
                 "bjj.eigensystem", "bjj.series", "morse.basis", "morse.state",
                 "morse.operator", "morse.series", "series.normalize",
                 "seriesio.write_series", "seriesio.read_series", "seriesio.write_pairs",
                 "seriesio.write_bitmap", "seriesio.write_other", "embedding.delay",
                 "embedding.embed", "returns.histogram", "recurrence.plot",
                 "recurrence.pair_search", "recurrence.lines", "lyapunov.scan",
                 "lyapunov.curve", "lyapunov.tree_build", "lyapunov.neighbor_query",
                 "lyapunov.fit"):
        m[name + "_s"] = secs(name)
    for layer in ("kerr", "bjj", "morse"):
        m[f"{layer}.calls"] = calls(f"{layer}.series")
        m[f"{layer}.level_samples"] = total(f"{layer}.series", "level_samples")
        m[f"{layer}.level_samples_per_s"] = rate(m[f"{layer}.level_samples"],
                                                 m[f"{layer}.series_s"])
    for layer in ("kerr", "bjj"):
        m[f"{layer}.series_sys_s"] = sum(sp.sys_s for sp in outermost(f"{layer}.series"))
    m["seriesio.series_bytes"] = (total("seriesio.write_series", "bytes")
                                  + total("seriesio.read_series", "bytes"))
    m["seriesio.series_mb_per_s"] = rate(
        m["seriesio.series_bytes"] / 1e6,
        m["seriesio.write_series_s"] + m["seriesio.read_series_s"])
    m["seriesio.pairs_bytes"] = total("seriesio.write_pairs", "bytes")
    m["seriesio.bitmap_bytes"] = total("seriesio.write_bitmap", "bytes")
    m["seriesio.bitmap_rss_rise_mb"] = sum(
        sp.rss_rise_mb for sp in outermost("seriesio.write_bitmap"))
    m["returns.calls"] = calls("returns.histogram")
    m["returns.returns"] = total("returns.histogram", "returns")
    m["recurrence.calls"] = calls("recurrence.plot")
    m["recurrence.pairs"] = total("recurrence.plot", "pairs")
    m["recurrence.window"] = total("recurrence.plot", "window")
    m["lyapunov.calls"] = calls("lyapunov.scan")
    m["lyapunov.gather_s"] = sum(self_s(sp) for sp in outermost("lyapunov.curve"))
    m["lyapunov.tree_builds"] = calls("lyapunov.tree_build")
    m["lyapunov.points_indexed"] = total("lyapunov.tree_build", "points")
    m["lyapunov.curves_attempted"] = calls("lyapunov.curve")
    m["lyapunov.curves_fitted_ratio"] = rate(total("lyapunov.fit", "fitted"),
                                             m["lyapunov.curves_attempted"])
    m["lyapunov.rss_rise_mb"] = sum(sp.rss_rise_mb for sp in outermost("lyapunov.scan"))
    m["trace.unattributed_s"] = sum(self_s(sp) for sp in spans if sp.name == "chain")
    m["trace.uncovered_ratio"] = rate(m["cli.self_s"],
                                      sum(sp.dur for sp in spans if sp.name == "chain"))
    return m
