"""Workloads: run configs and qnldyn CLI chains generated from a seed.

Each workload is one chain of `qnldyn` commands (`simulate`, then
`analyze ...`).  The seed only picks `t_start`, which changes every series
value and every analysis output but leaves the computed work fixed: the
same basis sizes, sample counts, embedding windows and scan grid.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Step:
    """One CLI command and the output it leaves for the checks.

    kind selects the check: "series" (a simulate step, checked against
    the direct single-time path of its config), "f1", "rp" or "lyap".
    """

    argv: tuple[str, ...]
    kind: str
    output: str
    config: str | None = None


@dataclass(frozen=True)
class Workload:
    """Run configs, each simulated and then put through every analysis.

    analyses holds (command, extra options, output suffix) triples for
    `qnldyn analyze`.
    """

    name: str
    t_start_range: tuple[float, float]
    configs: dict  # file stem -> config text with a {t_start} field
    analyses: tuple

    def t_start(self, seed: int) -> float:
        lo, hi = self.t_start_range
        return round(random.Random(f"{self.name}:{seed}").uniform(lo, hi), 6)


_KERR = """\
system = kerr
observable = {observable}
t_start = {{t_start}}
dt = 0.008
n_samples = 100000
kerr.chi = 1.0
kerr.chi_prime_ratio = 1e-3
kerr.alpha_sq = 25
kerr.ell = {ell}
"""

_BJJ = """\
system = bjj
observable = lx
t_start = {t_start}
dt = 0.02
n_samples = 200000
bjj.n_atoms = 40
bjj.u = 50
bjj.state = even
"""

_MORSE = """\
system = morse
observable = x
t_start = {t_start}
dt = 0.01
n_samples = 100000
morse.preset = default
morse.alpha = 0.4
morse.ell = 2
"""

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kerr-returns",
            (0.0, 100.0),
            {
                "kerr-x2-l1": _KERR.format(observable="x^2", ell=1),
                "kerr-x2-l2": _KERR.format(observable="x^2", ell=2),
                "kerr-fid-l2": _KERR.format(observable="fidelity", ell=2),
            },
            (("f1", ("--cell-size", "0.01"), ".f1.csv"),),
        ),
        Workload(
            "bjj-lyapunov",
            (0.0, 1000.0),
            {"bjj-even": _BJJ},
            (("lyap", (), ".lyap"),),
        ),
        Workload(
            "morse-recurrence",
            (0.0, 1000.0),
            {"morse-even": _MORSE},
            (("rp", ("--epsilon", "0.05", "--m", "3", "--window-size", "10000"), ".rp"),
             ("f1", (), ".f1.csv")),
        ),
    )
}


def write_configs(name: str, seed: int, workdir: str) -> None:
    """Write the workload's run configs under workdir."""
    wl = WORKLOADS[name]
    t_start = wl.t_start(seed)
    os.makedirs(workdir, exist_ok=True)
    for stem, text in wl.configs.items():
        with open(os.path.join(workdir, stem + ".cfg"), "w", encoding="utf-8") as fh:
            fh.write(text.format(t_start=repr(t_start)))


def chain(name: str, workdir: str) -> list[Step]:
    """The CLI steps of one chain iteration, in order."""
    steps = []
    for stem in WORKLOADS[name].configs:
        config = os.path.join(workdir, stem + ".cfg")
        series = os.path.join(workdir, "out", stem + ".csv")
        steps.append(Step(("simulate", config, "-o", series), "series", series, config))
        for command, options, suffix in WORKLOADS[name].analyses:
            output = os.path.join(workdir, "out", stem + suffix)
            steps.append(Step(("analyze", command, series, *options, "-o", output),
                              command, output))
    return steps
