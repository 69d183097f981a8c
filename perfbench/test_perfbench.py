"""Self-tests for the benchmark at tiny sizes (s=2, m=24, K=4).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import demix  # noqa: E402
from demix import objective, problem, solver, verify  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = demix.Dimensions(s=2, m=24, K=4)


def test_self_time_subtracts_nested_children():
    tree = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.inner", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("other", 11.0, 12.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 6.0, 0),
        spans.Span("b", 4.0, 12.0, 0),  # overlaps a and runs past its parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_tracing_wraps_every_namespace_and_restores():
    inst = demix.make_instance(TINY, kappa=1.0, sigma=0.0, seed=9)
    original = objective._gradient_full
    rec = spans.Recorder()
    with spans.tracing(rec):
        assert solver._gradient_full is not original
        assert verify._gradient_full is solver._gradient_full
        solver.run(inst, solver.SolverConfig(eta=0.1, max_iters=3, record_every=1))
    assert solver._gradient_full is original and verify._gradient_full is original
    summary = spans.summarise(rec)
    assert summary["objective.gradient"]["calls"] == 4
    assert summary["solver.record"]["calls"] == 4
    assert summary["solver.run"]["calls"] == 1
    grad_bytes = 16 * (2 * 2 * 4 + 2 * 24 * 4 + 24 * 4 + 24 + 2 * 2 * 4 + 24 + 2 * 24 * 2)
    assert summary["objective.gradient"]["bytes"] == 4 * grad_bytes
    top = [sp for sp in rec.spans if sp.parent < 0]
    total_self = sum(spans.self_times(rec.spans))
    assert total_self <= sum(sp.end - sp.start for sp in top) + 1e-9


def test_interference_free_takes_each_piece_fastest_time():
    jobs = [workloads.JobResult([1.0, 5.0, 2.0, 1.0]), workloads.JobResult([2.0, 3.0, 4.0, 0.5])]
    assert run.interference_free(jobs) == [1.0, 3.0, 2.0, 0.5]
    assert jobs[1].solve_s == 9.5


def test_job_count_depends_on_seconds_not_on_speed():
    assert run.job_count(36, 4.0, run.MIN_JOBS) == 9
    assert run.job_count(2, 4.0, run.MIN_JOBS) == run.MIN_JOBS
    calls = []
    assert len(run.run_jobs(5, lambda: calls.append(1), [])) == 5


def test_setups_are_spread_evenly_over_the_jobs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 22)

    class Counting:
        n = 0

        def setup(self):
            self.n += 1
            return self.n

        def fingerprint(self, ctx):
            return "same"

    wl = Counting()
    setups = run.TimedSetups(wl, n_jobs=4)
    done = [setups.before_job() for _ in range(4)]
    assert done == [6, 11, 17, 22] and len(setups.times) == 22


def test_host_speed_scales_to_the_fastest_probe():
    assert run.host_speed([2.5 * run.PROBE_REF_S, 1.25 * run.PROBE_REF_S]) == pytest.approx(0.8)


@pytest.mark.parametrize("name", ["solve_s", "objective.gradient.self_s", "a-b_c.9"])
def test_metric_name_accepted(name):
    run.check_metric_names([name])


@pytest.mark.parametrize("name", ["", "iter ms", "rate/s", "x" * 65, "é"])
def test_metric_name_rejected(name):
    with pytest.raises(run.BenchError):
        run.check_metric_names([name])


def test_benchmark_json_names_are_valid_and_unique():
    spec = run.load_spec(ROOT)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_descent_gate_rejects_perturbed_final_state():
    truth = demix.make_instance(TINY, kappa=1.0, sigma=0.0, seed=3).truth
    exact = objective.DemixState(h=truth.h.copy(), x=truth.x.copy())
    assert workloads.descent_failures(exact, truth) == []
    perturbed = exact.copy()
    perturbed.h[1, 2] += 1e-4
    assert workloads.descent_failures(perturbed, truth)


def test_recorded_gate_rejects_perturbed_record():
    wl = workloads.Fig1a(seed=9, max_iters=5, record_every=1, job_s=1.0, dims=TINY)
    inst = wl.setup()
    assert wl.job(inst).failures == []
    states = []
    _, records = solver.run(inst, wl.cfg, on_iterate=lambda t, s: states.append(s))
    assert workloads.recorded_failures(records, states, inst.truth, 5) == []
    records[3].relative_error *= 1 + 1e-6
    assert workloads.recorded_failures(records, states, inst.truth, 5)
    assert workloads.recorded_failures(records[:-1], states, inst.truth, 5)


def test_spectral_gate():
    table = [{"m": 400, "mean_deviation": 0.9}, {"m": 1600, "mean_deviation": 0.5}]
    good = {"pass": True, "metrics": {"table": table}}
    assert workloads.spectral_failures(0, good, [400, 1600]) == []
    assert workloads.spectral_failures(1, good, [400, 1600])
    assert workloads.spectral_failures(0, None, [400, 1600])
    assert workloads.spectral_failures(0, dict(good, **{"pass": False}), [400, 1600])
    flat = [dict(table[0]), dict(table[1], mean_deviation=0.9)]
    assert workloads.spectral_failures(0, {"pass": True, "metrics": {"table": flat}}, [400, 1600])


def test_spectral_job_stamps_each_trial_and_passes_its_gate(tmp_path):
    config = dict(workloads.SPECTRAL_CONFIG, dims={"s": 2, "m": 24, "K": 4},
                  m_sweep=[16, 256, 4096], n_trials=2)
    wl = workloads.SpectralMC(seed=5, workdir=tmp_path, config=config)
    try:
        job = wl.job(wl.setup())
    finally:
        wl.close()
    assert job.failures == []
    assert len(job.pieces) == 3 * 2 + 1
    assert not any(tmp_path.iterdir())
    assert verify.sample_design is problem.sample_design


def test_pin_threads_sets_unset_pins_and_flags_overrides():
    env = {"OMP_NUM_THREADS": "4"}
    overridden = run.pin_threads(env)
    assert overridden == {"OMP_NUM_THREADS": "4"}
    assert env["OMP_NUM_THREADS"] == "4"
    assert all(env[k] == "1" for k in run.PINS if k != "OMP_NUM_THREADS")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1a_descent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
