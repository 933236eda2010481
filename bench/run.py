"""Benchmark: qnldyn CLI chains timed end to end, with per-layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One iteration is a chain of `qnldyn` commands run in-process
through `qnldyn.cli.main(argv)` on run configs written from the seed (see
workloads.py).  Chains run back to back, one caller in a closed loop,
until `--seconds` of chain time has been measured.  After each chain, and
outside the timed region, its outputs are checked (checks.py) and hashed.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps qnldyn's public
functions from outside (tracing.py), alternates traced and untraced chains,
and prints the per-layer metrics.  Either way the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the full
record, with provenance, digests and spans, goes to
`.bench_work/results/`.

The runner removes QNLDYN_CACHE_DIR from its environment, so every run
builds the morse eigenbasis as a default `qnldyn` call does, whatever
an earlier run left on disk.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, chain, write_configs  # noqa: E402

#: Fresh interpreters started per untraced run to time set-up, spread
#: between the chains; the median is reported.
SETUP_PROBES = 13

#: Fewest timed chains per run (per kind in a traced run), whatever --seconds says.
MIN_CHAINS = 3

END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import qnldyn.cli, workloads; "
    "workloads.write_configs({name!r}, {seed!r}, {workdir!r})"
)


def setup_time(name: str, seed: int, workdir: str) -> float:
    """Seconds from starting a fresh interpreter to configs written and
    qnldyn.cli imported: what every shell `qnldyn` call pays first."""
    code = _PROBE.format(src=SRC, bench=BENCH, name=name, seed=seed, workdir=workdir)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_chain(main, steps, tracer=None) -> list:
    """Run the steps in order; return each step's exit code or exception text."""
    codes = []
    traced = tracer is not None and tracer.active
    root = tracer.span("chain") if traced else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), root:
        for step in steps:
            command = step.argv[0] if step.argv[0] == "simulate" else step.argv[1]
            span = tracer.span("cli." + command) if traced else contextlib.nullcontext()
            with span:
                try:
                    codes.append(main(list(step.argv)))
                except Exception as exc:  # a crash is a failed step, not a dead run
                    codes.append(f"{type(exc).__name__}: {exc}")
    return codes


def provenance(args, t_start) -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "t_start": t_start,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def git_commit() -> str:
    """HEAD of the checkout; git is not asked when the checkout has no .git,
    so it never searches the directories above the checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git rev-parse failed)"
    return out.stdout.strip()


@dataclass
class Measurement:
    """Raw results of one run's closed loop of chains."""

    walls: dict = field(default_factory=lambda: {True: [], False: []})  # traced? -> s
    cpus: list = field(default_factory=list)  # CPU seconds of the untraced chains
    setup: list = field(default_factory=list)  # seconds per set-up probe
    layer_rows: list = field(default_factory=list)  # (chain_metrics, spans) per traced chain
    problems: list = field(default_factory=list)
    digests: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0


def measure(cli_main, steps, outdir, seconds, tracer, probe=None) -> Measurement:
    """Run chains back to back until `seconds` of chain time is measured.

    With a tracer, the run opens with a traced chain (so peak-RSS rises
    show in its spans), then alternates untraced and traced chains.
    Outputs are checked and hashed after each chain, untimed.  With a
    probe, SETUP_PROBES set-up times are taken between chains, in step
    with the chain time measured so far, so that set-up and chains are
    timed over the same stretch of the host's load.
    """
    m = Measurement()
    measured = 0.0
    i = 0
    while not (measured >= seconds and len(m.walls[False]) >= MIN_CHAINS
               and (tracer is None or len(m.walls[True]) > MIN_CHAINS)):
        traced = tracer is not None and i % 2 == 0
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        gc.collect()
        if tracer is not None:
            tracer.active = traced
        u0, s0, _ = tracing.usage()
        t0 = time.perf_counter()
        codes = run_chain(cli_main, steps, tracer)
        wall = time.perf_counter() - t0
        u1, s1, m.peak_rss_mb = tracing.usage()  # peak read before the checks run
        cpu = (u1 - u0) + (s1 - s0)
        if tracer is not None:
            tracer.active = False
            spans = tracer.take()
            if traced:
                m.layer_rows.append((tracing.chain_metrics(spans),
                                     [s.as_dict() for s in spans]))
        m.walls[traced].append(wall)
        if not traced:
            m.cpus.append(cpu)
        measured += wall
        chain_ok = True
        for step, code in zip(steps, codes):
            found = [f"exit {code}"] if code != 0 else checks.check_step(step)
            m.attempted += 1
            m.failed += bool(found)
            chain_ok = chain_ok and not found
            m.problems.extend(f"chain {i}: {p}" for p in found)
        if chain_ok:
            m.digests.add(checks.digest(steps))
        if probe is not None:  # all SETUP_PROBES are due once `seconds` is measured
            due = (SETUP_PROBES if measured >= seconds
                   else math.ceil(SETUP_PROBES * measured / seconds))
            while len(m.setup) < due:
                m.setup.append(probe())
        i += 1
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qnldyn", "cli.py")):
        print(f"bench: no qnldyn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from qnldyn.cli import CACHE_ENV
    from qnldyn.cli import main as cli_main
    from qnldyn.config import load_config

    os.environ.pop(CACHE_ENV, None)  # read per call; set-up probes inherit the removal
    workdir = os.path.join(WORK, args.workload)
    write_configs(args.workload, args.seed, workdir)
    steps = chain(args.workload, workdir)
    n_samples = sum(load_config(s.config).n_samples for s in steps if s.config)
    outdir = os.path.join(workdir, "out")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    probe = None
    if not args.trace:
        probe_dir = os.path.join(workdir, "probe")
        probe = functools.partial(setup_time, args.workload, args.seed, probe_dir)
    m = measure(cli_main, steps, outdir, args.seconds, tracer, probe)

    if args.trace:
        # The first traced chain only supplies the peak-RSS rises.
        rows = [row for row, _ in m.layer_rows[1:]]
        metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        for name in tracing.PEAK_METRICS:
            metrics[name] = max(row[name] for row, _ in m.layer_rows)
        metrics["trace.wall_s"] = statistics.median(m.walls[True][1:])
        metrics["trace.untraced_wall_s"] = statistics.median(m.walls[False])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["fail_rate"] = m.failed / m.attempted
        units = tracing.PER_LAYER
    else:
        wall_s = statistics.median(m.walls[False])
        metrics = {
            "wall_s": wall_s,
            "samples_per_s": n_samples / wall_s,
            "cpu_s": statistics.median(m.cpus),
            "setup_s": statistics.median(m.setup),
            "peak_rss_mb": m.peak_rss_mb,
        }
        units = END_TO_END
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and their declared units differ: {sorted(missing)}")

    record = {
        "provenance": provenance(args, WORKLOADS[args.workload].t_start(args.seed)),
        "digests": sorted(m.digests),
        "chains": {"untraced_wall_s": m.walls[False], "traced_wall_s": m.walls[True],
                   "cpu_s": m.cpus, "setup_s": m.setup},
        "problems": m.problems,
        "metrics": metrics,
        "spans": [spans for _, spans in m.layer_rows],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in m.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"digest={','.join(sorted(m.digests)) or 'none'} "
          f"record={os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
