"""Self-test of the benchmark's checks, digest and work counts.

    python3 bench/selftest.py

Runs one traced chain of every workload on two seeds and shows that:

- every step passes its output check on unmodified outputs;
- the checks flag each injected error: a series sample moved by 1e-8,
  one flipped PBM bit, and one dropped recurrence pair row;
- the two seeds give different analysis digests but identical computed
  work (kerr level-samples, recurrence window, lyapunov tree builds, and
  every other size the seed must not change).  The bjj-lyapunov digest
  is the exception, noted rather than failed: see SEED_BLIND_DIGEST;
- the wrapped functions cover each chain: the time inside commands that
  no wrapped function covers stays under UNCOVERED_LIMIT of the chain;
- BENCHMARK.json names exactly the workloads and metrics the runner prints.

Exits 0 when all of this holds and 1 otherwise, printing each finding.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import run
from checks import SERIES_PROBES, check_rp, check_series, check_step, digest
from tracing import PER_LAYER, Tracer, chain_metrics, install
from workloads import WORKLOADS, chain, write_configs

SEEDS = (11, 12)

#: Workloads whose digest cannot tell seeds apart, and why.
SEED_BLIND_DIGEST = {
    "bjj-lyapunov": "its only integer outputs are the lyap fit windows and t offsets, "
                    "and every fit window is 1:5 with all offsets defined",
}

#: Largest share of a traced chain that may fall inside a command but
#: outside every wrapped function (`trace.uncovered_ratio`).
UNCOVERED_LIMIT = 0.02

#: Work counts the seed must leave unchanged.
WORK_COUNTS = ("kerr.level_samples", "bjj.level_samples", "morse.level_samples",
               "seriesio.bitmap_bytes", "recurrence.window", "lyapunov.tree_builds",
               "lyapunov.points_indexed", "lyapunov.curves_attempted")


def _data_lines(lines: list[bytes]) -> list[int]:
    return [k for k, line in enumerate(lines) if line and not line.startswith(b"#")]


def perturb_sample(path: str, delta: float) -> None:
    """Move one series sample that the check probes by delta."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    rows = _data_lines(lines)
    k = rows[int(np.linspace(0, len(rows) - 1, SERIES_PROBES).astype(np.int64)[7])]
    lines[k] = b"%.17g" % (float(lines[k]) + delta)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


def flip_bit(path: str) -> None:
    with open(path, "r+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(size // 2)
        byte = fh.read(1)[0]
        fh.seek(size // 2)
        fh.write(bytes([byte ^ 0x10]))


def drop_row(path: str) -> None:
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    rows = _data_lines(lines)
    del lines[rows[len(rows) // 2]]
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


def main() -> int:
    sys.path.insert(0, run.SRC)
    from qnldyn.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    findings = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            findings.append(what)

    for name in WORKLOADS:
        seen = {}
        for seed in SEEDS:
            workdir = os.path.join(run.WORK, "selftest", f"{name}-seed{seed}")
            shutil.rmtree(workdir, ignore_errors=True)
            write_configs(name, seed, workdir)
            os.makedirs(os.path.join(workdir, "out"))
            steps = chain(name, workdir)
            tracer.active = True
            codes = run.run_chain(cli_main, steps, tracer)
            tracer.active = False
            counts = chain_metrics(tracer.take())
            problems = [p for s, c in zip(steps, codes)
                        for p in ([f"exit {c}"] if c != 0 else check_step(s))]
            expect(not problems, f"{name} seed {seed}: outputs pass ({problems[:3]})")
            expect(counts["trace.uncovered_ratio"] < UNCOVERED_LIMIT,
                   f"{name} seed {seed}: {counts['trace.uncovered_ratio']:.4f} of the "
                   f"chain is inside commands but outside wrapped functions "
                   f"(limit {UNCOVERED_LIMIT})")
            seen[seed] = (digest(steps), {k: counts[k] for k in WORK_COUNTS})
            if seed != SEEDS[0]:
                continue
            for step in steps:
                if step.kind == "series":
                    backup = step.output + ".orig"
                    shutil.copyfile(step.output, backup)
                    perturb_sample(step.output, 1e-8)
                    expect(bool(check_series(step.output, step.config)),
                           f"{name}: a 1e-8 change to one sample of "
                           f"{os.path.basename(step.output)} is flagged")
                    os.replace(backup, step.output)
                if step.kind == "rp":
                    for label, inject, suffix in (("one flipped PBM bit", flip_bit, ".pbm"),
                                                  ("one dropped pair row", drop_row,
                                                   ".pairs.csv")):
                        path = step.output + suffix
                        shutil.copyfile(path, path + ".orig")
                        inject(path)
                        expect(bool(check_rp(step.output)), f"{name}: {label} is flagged")
                        os.replace(path + ".orig", path)
        (d1, w1), (d2, w2) = seen[SEEDS[0]], seen[SEEDS[1]]
        if name in SEED_BLIND_DIGEST and d1 == d2:
            print(f"note  {name}: seeds {SEEDS} give the same digest: "
                  f"{SEED_BLIND_DIGEST[name]}")
        else:
            expect(d1 != d2, f"{name}: seeds {SEEDS} give different digests")
        expect(w1 == w2, f"{name}: seeds {SEEDS} give identical work counts {w1}")

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the runner's workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches the runner's metrics and units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per_layer matches the runner's metrics and units")

    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
