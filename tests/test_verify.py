"""Empirical geometry checks: population Hessian oracle, curvature sampling,
back-projection concentration, leave-one-out proximity, reports."""

import dataclasses
import json

import numpy as np
import pytest

from demix import _rng, metrics, verify
from demix.objective import DemixState, source_hessians
from demix.problem import (
    Dimensions,
    GroundTruth,
    ProblemInstance,
    make_dft_rows,
    make_instance,
    sample_design,
    sample_ground_truth,
    synthesize_measurements,
)
from demix.solver import SolverConfig, backprojection_matrices, run
from demix.verify import (
    NOISE_MODEL_NOTE,
    RscReport,
    check_rsc,
    leave_one_out_trajectories,
    make_report,
    spectral_concentration,
    write_report,
)

from oracles import naive_backprojection, population_hessian


def _unit_truth(s, K, seed):
    return sample_ground_truth(Dimensions(s=s, m=K, K=K), 1.0, seed)


# --------------------------------------------------------- population Hessian


def test_population_hessian_frozen_minimal_case():
    truth = GroundTruth(
        h=np.array([[1.0 + 0j]]),
        x=np.array([[1.0 + 0j]]),
        d=np.array([2.0]),
        d0=1.0,
        kappa=1.0,
    )
    H = population_hessian(truth)
    want = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.array_equal(H, want)
    eig = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(eig, [0, 0, 2, 2], atol=1e-12)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_population_hessian_spectrum(s):
    truth = _unit_truth(s, 3, seed=s + 10)
    H = population_hessian(truth)
    assert H.shape == (12 * s, 12 * s)
    assert np.allclose(H, H.conj().T, atol=1e-14)
    eig = np.linalg.eigvalsh(H)
    # eigenvalues cluster on {0, 1, 2}; the norm is 2 regardless of s
    gaps = np.min(np.abs(eig[:, None] - np.array([0.0, 1.0, 2.0])), axis=1)
    assert gaps.max() <= 1e-9
    assert np.max(np.abs(eig)) == pytest.approx(2.0, abs=1e-10)


def test_population_hessian_rejects_unbalanced_sources():
    truth = GroundTruth(
        h=np.array([[2.0 + 0j]]),
        x=np.array([[1.0 + 0j]]),
        d=np.array([5.0]),
        d0=2.0,
        kappa=1.0,
    )
    with pytest.raises(ValueError):
        population_hessian(truth)
    # balanced but not unit norm: the closed form's identity blocks would be wrong
    balanced = GroundTruth(h=truth.h, x=truth.h.copy(), d=np.array([8.0]), d0=4.0, kappa=1.0)
    with pytest.raises(ValueError):
        population_hessian(balanced)


def test_population_hessian_matches_design_average():
    # fixed truth, fresh designs: the trial mean of the clean Hessian at the
    # truth must land within 5 standard errors of the closed form, entrywise
    dims = Dimensions(s=1, m=64, K=2)
    truth = sample_ground_truth(dims, 1.0, 5)
    B = make_dft_rows(dims.m, dims.K)
    state = DemixState(h=truth.h.copy(), x=truth.x.copy())
    n_trials = 300
    Hs = np.empty((n_trials, 8, 8), dtype=complex)
    for t in range(n_trials):
        sk = _rng.derive_seed(5, t)
        A = sample_design(dims, sk)
        y, e = synthesize_measurements(truth, A, B, 0.0, sk)
        inst = ProblemInstance(dims=dims, A=A, B=B, y=y, e=e, sigma=0.0, seed=sk, truth=truth)
        Hs[t] = source_hessians(state, inst)[0]
    pop = population_hessian(truth)
    mean = Hs.mean(axis=0)
    se_re = Hs.real.std(axis=0, ddof=1) / np.sqrt(n_trials)
    se_im = Hs.imag.std(axis=0, ddof=1) / np.sqrt(n_trials)
    assert np.all(np.abs(mean.real - pop.real) <= 5 * se_re + 1e-12)
    assert np.all(np.abs(mean.imag - pop.imag) <= 5 * se_im + 1e-12)


# ------------------------------------------------------------------ curvature


def test_rsc_report_validation():
    with pytest.raises(ValueError):
        RscReport(
            samples_tested=0, min_quadratic_ratio=1.0, smoothness_max=2.0,
            kappa=1.0, s=1, passed=True,
        )
    with pytest.raises(ValueError):
        RscReport(
            samples_tested=5, min_quadratic_ratio=float("nan"), smoothness_max=2.0,
            kappa=1.0, s=1, passed=True,
        )


def test_check_rsc_small_instance():
    inst = make_instance(Dimensions(s=1, m=1600, K=4), kappa=1.0, sigma=0.0, seed=7)
    rep = check_rsc(inst, n_points=10, n_dirs=5, delta=0.1, rng_seed=7)
    assert rep.samples_tested == 50
    assert rep.sampling_failures == 0
    assert rep.passed is True
    assert rep.min_quadratic_ratio >= 0.25  # 1/(4 kappa) at kappa = 1
    assert rep.smoothness_max <= 3.0  # 2 + s


def test_check_rsc_falls_back_when_retries_run_out(monkeypatch):
    # a tight side condition (c_a = 0.05) spends the 3 retries, so the
    # directions fall back to the raw difference of the last pair
    monkeypatch.setattr(verify, "_RETRY_LIMIT", 3)
    monkeypatch.setattr(verify, "_C_A", 0.05)
    inst = make_instance(Dimensions(s=2, m=200, K=4), seed=2)
    rep = check_rsc(inst, 2, 3, 0.3, 5)
    assert rep.sampling_failures > 0
    assert rep.samples_tested == 6
    assert np.isfinite(rep.min_quadratic_ratio)


def test_check_rsc_input_validation(small_instance):
    with pytest.raises(ValueError):
        check_rsc(small_instance, n_points=0, n_dirs=5, delta=0.1, rng_seed=1)
    blind = dataclasses.replace(small_instance, truth=None)
    with pytest.raises(ValueError):
        check_rsc(blind, n_points=2, n_dirs=2, delta=0.1, rng_seed=1)


# -------------------------------------------------- spectral concentration


def test_spectral_concentration_smoke():
    dims = Dimensions(s=2, m=256, K=4)
    out = spectral_concentration(dims, 0.0, 25, 3)
    assert out["deviations"].shape == (25, 2)
    assert np.all(np.isfinite(out["deviations"]))
    assert out["mean_deviation"] == pytest.approx(out["deviations"].mean())
    assert out["max_deviation"] == pytest.approx(out["deviations"].max())
    # the trial mean of each back-projection matches its rank-one target
    se = 5 * np.maximum(out["se_re"], out["se_im"]) + 1e-12
    assert np.all(np.abs(out["mean_M"] - out["expected"]) <= se)


def test_spectral_concentration_rejects_empty():
    with pytest.raises(ValueError):
        spectral_concentration(Dimensions(s=1, m=8, K=2), 0.0, 0, 1)


# ------------------------------------------------------------- leave-one-out


def test_deleting_one_measurement_from_backprojection(small_instance):
    inst = small_instance
    Ms = backprojection_matrices(inst.A, inst.B, inst.y)
    for l in (0, 5, inst.dims.m - 1):
        rank_one = np.stack(
            [inst.y[l] * np.outer(inst.B[l], np.conj(inst.A[i, l])) for i in range(inst.dims.s)]
        )
        reduced = naive_backprojection(
            np.delete(inst.A, l, axis=1), np.delete(inst.B, l, axis=0), np.delete(inst.y, l)
        )
        assert np.allclose(Ms - rank_one, reduced, rtol=1e-12, atol=1e-13)


def test_leave_one_out_trajectories_report():
    inst = make_instance(Dimensions(s=2, m=48, K=3), kappa=1.5, sigma=0.1, seed=5)
    out = leave_one_out_trajectories(inst, SolverConfig(eta=0.1, max_iters=5), [0, 7])
    assert sorted(out.keys()) == [
        "degenerate", "dist_initial", "dist_truth", "iters",
        "l_set", "per_l", "series",
    ]
    assert np.array_equal(out["iters"], np.arange(6))
    assert out["per_l"].shape == (6, 2)
    assert np.all(np.isfinite(out["per_l"]))
    assert np.array_equal(out["series"], out["per_l"].max(axis=1))
    assert out["dist_initial"] == out["dist_truth"][0]
    assert out["l_set"] == [0, 7]
    assert out["degenerate"] is False


def test_leave_one_out_matches_runs_on_deleted_measurement():
    inst = make_instance(Dimensions(s=2, m=48, K=3), kappa=1.5, sigma=0.1, seed=5)
    cfg = SolverConfig(eta=0.1, max_iters=20)
    l_set = [0, 7, 47]
    out = leave_one_out_trajectories(inst, cfg, l_set)
    main = []
    run(inst, cfg, on_iterate=lambda t, st: main.append(st))
    truth = inst.truth
    for k, l in enumerate(l_set):
        reduced = ProblemInstance(
            dims=Dimensions(s=2, m=47, K=3),
            A=np.delete(inst.A, l, axis=1),
            B=np.delete(inst.B, l, axis=0),
            y=np.delete(inst.y, l),
            e=np.zeros(0, dtype=complex),
            sigma=inst.sigma,
            seed=inst.seed,
        )
        held = []
        run(reduced, cfg, on_iterate=lambda t, st: held.append(st))
        assert len(held) == len(main) == cfg.max_iters + 1
        for t, (st_main, st_held) in enumerate(zip(main, held)):
            align = metrics.align_state(st_main, truth)
            ref_h = st_main.h / np.conj(align.alpha)[:, None]
            ref_x = align.alpha[:, None] * st_main.x
            g = metrics.aligned_error(st_held.h, st_held.x, ref_h, ref_x)[1]
            want = metrics.dist_from_errors(g, truth.d)
            assert out["per_l"][t, k] == pytest.approx(want, rel=1e-12)
            assert out["dist_truth"][t] == align.dist(truth.d)


def test_leave_one_out_validation(small_instance):
    cfg = SolverConfig(eta=0.1, max_iters=2)
    with pytest.raises(ValueError):
        leave_one_out_trajectories(small_instance, cfg, [])
    with pytest.raises(IndexError):
        leave_one_out_trajectories(small_instance, cfg, [small_instance.dims.m])
    with pytest.raises(IndexError):
        leave_one_out_trajectories(small_instance, cfg, [-1])
    blind = dataclasses.replace(small_instance, truth=None)
    with pytest.raises(ValueError):
        leave_one_out_trajectories(blind, cfg, [0])


def test_leave_one_out_single_measurement_is_degenerate():
    inst = make_instance(Dimensions(s=1, m=1, K=1), kappa=1.0, sigma=0.0, seed=1)
    out = leave_one_out_trajectories(inst, SolverConfig(eta=0.1, max_iters=2), [0])
    assert out["degenerate"] is True
    assert np.all(np.isfinite(out["series"]))


# -------------------------------------------------------------------- reports


def test_make_report_fields_and_note():
    rep = make_report(
        "curvature",
        {"n": np.int64(3), "z": 1.5 + 0.5j},
        seed=11,
        metrics_out={"ratio": np.float64(0.4), "flag": np.bool_(True)},
        passed=True,
    )
    assert rep["check"] == "curvature"
    assert rep["pass"] is True
    assert rep["seed"] == 11
    assert rep["params"]["n"] == 3 and isinstance(rep["params"]["n"], int)
    assert rep["params"]["z"] == {"re": 1.5, "im": 0.5}
    assert rep["metrics"]["ratio"] == 0.4
    assert rep["metrics"]["flag"] is True
    assert rep["notes"] == [NOISE_MODEL_NOTE]


def test_write_report_sorted_json_with_newline(tmp_path):
    rep = make_report("x", {"b": 1, "a": np.arange(3)}, 2, {"v": 0.5}, False)
    path = tmp_path / "report.json"
    write_report(rep, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["pass"] is False
    assert parsed["params"]["a"] == [0, 1, 2]
    assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
