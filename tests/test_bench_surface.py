"""The program names the benchmark reaches from outside, checked here so a
refactor that breaks them fails the quick suite, not only the bench
self-test.

`bench/tracing.py` wraps qnldyn functions by name and `bench/checks.py`
re-derives each simulated series by the single-time path.  Both run in a
fresh interpreter: the tracer patches modules in place, and nothing of it
may leak into this session.
"""

import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    env.pop("QNLDYN_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_tracer_resolves_every_name_it_wraps(tmp_path):
    proc = run_script("""
        import tracing
        tracing.install(tracing.Tracer())
        print("installed")
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "installed\n"


#: One short run per system, observables as the workloads use them.
RUNS = {
    "kerr": "system = kerr\nobservable = x^2\nkerr.chi_prime_ratio = 1e-3\n",
    "morse": "system = morse\nobservable = x\nmorse.ell = 2\n",
    "bjj": "system = bjj\nobservable = lx\n",
}


@pytest.mark.parametrize("system", sorted(RUNS))
def test_series_check_passes_on_a_short_simulation(tmp_path, system):
    cfg = tmp_path / f"{system}.cfg"
    cfg.write_text(RUNS[system] + "t_start = 3.7\ndt = 0.01\nn_samples = 200\n")
    proc = run_script(f"""
        import checks
        from qnldyn.cli import main
        assert main(["simulate", {str(cfg)!r}, "-o", "series.csv"]) == 0
        print(checks.check_series("series.csv", {str(cfg)!r}))
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
