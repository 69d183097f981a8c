"""Empirical geometry checks: population Hessian oracle, curvature sampling,
back-projection concentration, leave-one-out proximity, reports."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demix import _rng, metrics, objective, verify
from demix.objective import DemixState, _source_curvatures
from demix.problem import (
    Dimensions,
    GroundTruth,
    ProblemInstance,
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
    run_check,
    spectral_concentration,
    write_report,
)

from conftest import trial_mean_error
from oracles import (
    naive_backprojection,
    population_hessian,
    real_to_wirtinger,
    reference_descent,
    rsc_points,
)


def _unit_truth(s, K, seed):
    return sample_ground_truth(Dimensions(s=s, m=K, K=K), 1.0, seed)


# --------------------------------------------------------- population Hessian


def test_population_hessian_frozen_minimal_case():
    truth = GroundTruth(h=np.array([[1.0 + 0j]]), x=np.array([[1.0 + 0j]]))
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


@pytest.mark.parametrize("s", [1, 2, 3])
def test_population_hessian_norm_is_two_at_criterion_08_truths(s):
    # criterion 08's cause: at its truths each source adds a block with
    # eigenvalues 0 (twice), 1 (4K - 4 times) and 2 (twice), so the norm is 2
    # for every s and the asserted 1 + s holds at s = 1 only
    truth = sample_ground_truth(Dimensions(s=s, m=3, K=3), 1.0, s + 10)
    eig = np.linalg.eigvalsh(population_hessian(truth))
    gaps = np.abs(eig[:, None] - np.array([0.0, 1.0, 2.0]))
    assert gaps.min(axis=1).max() <= 1e-12
    assert np.bincount(gaps.argmin(axis=1), minlength=3).tolist() == [2 * s, 8 * s, 2 * s]


def test_population_hessian_rejects_unbalanced_sources():
    truth = GroundTruth(h=np.array([[2.0 + 0j]]), x=np.array([[1.0 + 0j]]))
    with pytest.raises(ValueError):
        population_hessian(truth)
    # balanced but not unit norm: the closed form's identity blocks would be wrong
    balanced = GroundTruth(h=truth.h, x=truth.h.copy())
    with pytest.raises(ValueError):
        population_hessian(balanced)


def test_population_hessian_matches_design_average():
    # fixed truth, fresh designs: the trial mean of the clean curvature at the
    # truth must land within 5 standard errors of the closed form taken to
    # the same real coordinates, entrywise
    dims = Dimensions(s=1, m=64, K=2)
    truth = sample_ground_truth(dims, 1.0, 5)
    state = DemixState(h=truth.h.copy(), x=truth.x.copy())
    n_trials = 300
    Ms = np.empty((n_trials, 8, 8))
    for t in range(n_trials):
        sk = _rng.derive_seed(5, t)
        A = sample_design(dims, sk)
        y, e = synthesize_measurements(truth, A, 0.0, sk)
        inst = ProblemInstance(dims=dims, A=A, y=y, e=e, sigma=0.0, seed=sk, truth=truth)
        (Ms[t],) = _source_curvatures(state, inst, y)  # sigma = 0: y is the truth's forward map
    T = real_to_wirtinger(dims.K)
    pop = (T.conj().T @ population_hessian(truth) @ T).real / 2
    se = Ms.std(axis=0, ddof=1) / np.sqrt(n_trials)
    assert np.all(np.abs(Ms.mean(axis=0) - pop) <= 5 * se + 1e-12)


# ------------------------------------------------------------------ curvature


def test_rsc_report_validation():
    with pytest.raises(ValueError):
        RscReport(
            n_points=0, min_quadratic_ratio=1.0, smoothness_max=2.0,
            kappa=1.0, s=1, passed=True,
        )
    with pytest.raises(ValueError):
        RscReport(
            n_points=5, min_quadratic_ratio=float("nan"), smoothness_max=2.0,
            kappa=1.0, s=1, passed=True,
        )


def test_check_rsc_small_instance():
    inst = make_instance(Dimensions(s=1, m=1600, K=4), kappa=1.0, sigma=0.0, seed=7)
    rep = check_rsc(inst, n_points=10, delta=0.1, rng_seed=7)
    assert rep.n_points == 10
    assert rep.sampling_failures == 0
    assert rep.passed is True
    assert rep.min_quadratic_ratio >= 0.25  # 1/(4 kappa) at kappa = 1
    assert rep.smoothness_max <= 3.0  # 2 + s


def test_check_rsc_takes_the_exact_minimum_orthogonal_to_the_gauge(monkeypatch):
    # a point's ratio is the minimum over every direction orthogonal to the
    # gauge tangents of its sources: random such directions never go below
    # it and the minimizing eigenvector reaches it, while each M_i has two
    # near-null eigenvalues that would decide an unprojected minimum
    inst = make_instance(Dimensions(s=2, m=400, K=6), kappa=1.5, sigma=0.05, seed=1)
    gauge_free_minimum = verify._gauge_free_minimum
    calls = []

    def recorded(h, x, M, beta):
        calls.append((h, x, M, beta, gauge_free_minimum(h, x, M, beta)))
        return calls[-1][-1]

    monkeypatch.setattr(verify, "_gauge_free_minimum", recorded)
    rep = check_rsc(inst, n_points=3, delta=0.1, rng_seed=1)
    assert len(calls) == 3 * 2
    assert rep.min_quadratic_ratio == min(call[-1] for call in calls)
    gen = np.random.default_rng(0)
    for h, x, M, beta, low in calls:
        S = np.repeat(beta, 2 * len(h))[:, None] * M
        S = S + S.T  # v^T S v = 2 (D v)^T M v

        def ratio(v):
            return v @ S @ v / (v @ v)

        T = np.array([np.concatenate([-h.real, -h.imag, x.real, x.imag]),
                      np.concatenate([-h.imag, h.real, -x.imag, x.real])]).T
        P = np.eye(len(S)) - T @ np.linalg.pinv(T)
        assert min(ratio(v) for v in gen.standard_normal((200, len(S))) @ P) >= low
        lam, U = np.linalg.eigh(P @ S @ P)
        off_gauge = np.linalg.norm(P @ U, axis=0) > 0.5
        v = U[:, off_gauge][:, np.argmin(lam[off_gauge])]
        assert np.max(np.abs(T.T @ v)) <= 1e-12
        assert ratio(v) == pytest.approx(low, rel=1e-12)
        assert np.sum(np.abs(np.linalg.eigvalsh(M)) < low / 8) == 2
        assert np.linalg.eigvalsh(S)[0] < 0 < low


def test_check_rsc_falls_back_when_retries_run_out(monkeypatch):
    # a tight side condition (c_a = 0.05) rejects every x draw, so 3 redraws
    # spend the budget: each of the 4 x draws then keeps a rejected candidate
    monkeypatch.setattr(verify, "_REJECTION_BUDGET", 3)
    monkeypatch.setattr(verify, "_C_A", 0.05)
    inst = make_instance(Dimensions(s=2, m=200, K=4), seed=2)
    rep = check_rsc(inst, 2, 0.3, 5)
    assert rep.sampling_failures == 4
    assert rep.n_points == 2
    assert rep.passed is False
    assert np.isfinite(rep.min_quadratic_ratio)


def test_check_rsc_side_conditions_bind_on_some_draws(monkeypatch):
    # with c_a = 2 the side conditions reject most x draws and accept some,
    # so the count pins which draws each incoherence test accepts
    monkeypatch.setattr(verify, "_REJECTION_BUDGET", 40)
    monkeypatch.setattr(verify, "_C_A", 2.0)
    inst = make_instance(Dimensions(s=1, m=100, K=3), kappa=1.0, sigma=0.05, seed=3)
    rep = check_rsc(inst, 3, 0.3, 3)
    assert rep.sampling_failures == 2


def test_check_rsc_draws_are_bounded_by_one_budget(monkeypatch):
    # at delta = 1 most draws break a side condition; the check spends its
    # budget of redraws on top of one draw per source and point
    # (2s n_points = 12), and reports the shortfall as a failure
    inst = make_instance(Dimensions(s=2, m=400, K=6), kappa=1.0, sigma=0.05, seed=1)
    draw = _rng.complex_standard_normal
    calls = []
    monkeypatch.setattr(
        _rng, "complex_standard_normal", lambda *a: calls.append(1) or draw(*a)
    )
    rep = check_rsc(inst, 3, 1.0, 1)
    assert len(calls) == verify._REJECTION_BUDGET + 12
    assert rep.sampling_failures > 0
    assert rep.passed is False


@pytest.mark.parametrize(
    "dims, n_points, delta, seed, budget, c_a, failures",
    [(Dimensions(s=1, m=100, K=3), 4, 0.3, 3, 40, 2.0, 3),
     (Dimensions(s=2, m=400, K=6), 2, 1.0, 1, verify._REJECTION_BUDGET, verify._C_A, 4)],
    ids=["tight-budget", "wide-ball"],
)
def test_check_rsc_draws_its_points_in_the_documented_order(
    monkeypatch, dims, n_points, delta, seed, budget, c_a, failures
):
    # the points and weights check_rsc measures are, bit for bit, the
    # oracle's draws from its docstring, at settings that spend the budget
    monkeypatch.setattr(verify, "_REJECTION_BUDGET", budget)
    monkeypatch.setattr(verify, "_C_A", c_a)
    inst = make_instance(dims, kappa=1.0, sigma=0.05, seed=seed)
    seen, weights = [], []
    curvatures, gauge_free_minimum = verify._source_curvatures, verify._gauge_free_minimum
    monkeypatch.setattr(verify, "_source_curvatures",
                        lambda z, *a: seen.append(z) or curvatures(z, *a))
    monkeypatch.setattr(verify, "_gauge_free_minimum",
                        lambda *a: weights.append(a[3]) or gauge_free_minimum(*a))
    rep = check_rsc(inst, n_points, delta, seed)
    points, betas, want_failures = rsc_points(inst, n_points, delta, seed, budget=budget, c_a=c_a)
    assert rep.sampling_failures == want_failures == failures
    assert len(seen) == n_points
    for z, (h, x) in zip(seen, points):
        np.testing.assert_array_equal(z.h, h)
        np.testing.assert_array_equal(z.x, x)
    np.testing.assert_array_equal(np.array(weights), betas.reshape(-1, 2))


def test_check_rsc_memory_is_a_few_source_designs():
    # the working set is one source's (m, 2K) Jacobian and (4K, 4K)
    # curvature beside the (m, s) forward parts, so the peak stays a few of
    # one source's design bytes as s grows (measured 3.24x at s = 1 and
    # 4.39x at s = 4); one Jacobian per source would take s = 4 past 8x
    m, K = 6400, 8
    peaks = []
    for s in (1, 4):
        inst = make_instance(Dimensions(s=s, m=m, K=K), kappa=1.0, sigma=0.0, seed=s)
        tracemalloc.start()
        try:
            check_rsc(inst, n_points=3, delta=0.1, rng_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak / (m * K * np.dtype(complex).itemsize))
    assert max(peaks) <= 4.5, f"peaks {peaks} x one source's design"


def test_check_rsc_input_validation(small_instance):
    with pytest.raises(ValueError):
        check_rsc(small_instance, n_points=0, delta=0.1, rng_seed=1)
    for n_points in (2.5, True, 2.0):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            check_rsc(small_instance, n_points=n_points, delta=0.1, rng_seed=1)
    assert check_rsc(small_instance, n_points=np.int64(1), delta=0.1, rng_seed=1).n_points == 1
    blind = dataclasses.replace(small_instance, truth=None)
    with pytest.raises(ValueError):
        check_rsc(blind, n_points=2, delta=0.1, rng_seed=1)


@pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), float("inf")])
def test_check_rsc_rejects_a_radius_that_is_not_positive(small_instance, delta):
    # delta = 0 would spend the whole draw budget on an empty ball, a
    # negative delta would draw with a negative radius, and an infinite one
    # would draw points at infinity
    with pytest.raises(ValueError, match="delta > 0"):
        check_rsc(small_instance, n_points=2, delta=delta, rng_seed=1)


@pytest.mark.parametrize("n_points", [1, 4])
def test_check_rsc_forms_the_truth_forward_map_once(monkeypatch, n_points):
    # one forward pass per sampled point, plus one for the truth shared by all
    inst = make_instance(Dimensions(s=2, m=200, K=4), kappa=1.0, sigma=0.0, seed=2)
    calls = []

    def counted(forward):
        return lambda *a: calls.append(1) or forward(*a)

    monkeypatch.setattr(objective, "forward_parts", counted(objective.forward_parts))
    monkeypatch.setattr(verify, "forward_parts", counted(verify.forward_parts))
    check_rsc(inst, n_points=n_points, delta=0.1, rng_seed=1)
    assert len(calls) == n_points + 1


# -------------------------------------------------- spectral concentration


def test_spectral_concentration_smoke(backprojection_log):
    dims = Dimensions(s=2, m=256, K=4)
    devs = spectral_concentration(dims, 0.0, 25, 3)
    assert devs.shape == (25, 2)
    assert np.all(np.isfinite(devs))
    # each deviation is the spectral norm of its trial's back-projection
    # error, and the trial mean of each back-projection matches its
    # rank-one target
    truth = sample_ground_truth(dims, 1.0, 3)
    Ms = np.array(backprojection_log)
    expected = np.stack([np.outer(h, np.conj(x)) for h, x in zip(truth.h, truth.x)])
    assert devs == pytest.approx(np.linalg.norm(Ms - expected, ord=2, axis=(2, 3)), rel=1e-12)
    err, se = trial_mean_error(Ms, truth)
    assert np.all(err <= 5 * se + 1e-12)


def test_spectral_concentration_memory_does_not_grow_with_trials():
    # about 1.6x: one trial's design and draw block buffers, B, and a few
    # (s, K, K) stacks, each 1/8 of the design at this m; a stack of all 20
    # trials' back-projections would take the peak past 4x
    dims = Dimensions(s=10, m=400, K=50)
    design_bytes = dims.s * dims.m * dims.K * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        spectral_concentration(dims, 0.0, 20, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * design_bytes, f"peak {peak / design_bytes:.2f}x the design"


def test_spectral_concentration_rejects_empty():
    with pytest.raises(ValueError):
        spectral_concentration(Dimensions(s=1, m=8, K=2), 0.0, 0, 1)
    for n_trials in (2.5, True, 2.0):
        with pytest.raises(ValueError, match="n_trials must be an integer"):
            spectral_concentration(Dimensions(s=1, m=8, K=2), 0.0, n_trials, 1)
    assert spectral_concentration(Dimensions(s=1, m=8, K=2), 0.0, np.int64(2), 1).shape == (2, 1)


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
    out = leave_one_out_trajectories(inst, [0, 7], eta=0.1, max_iters=5)
    assert sorted(out.keys()) == ["dist_initial", "dist_truth", "iters", "l_set", "per_l", "series"]
    assert np.array_equal(out["iters"], np.arange(6))
    assert out["per_l"].shape == (6, 2)
    assert np.all(np.isfinite(out["per_l"]))
    assert np.array_equal(out["series"], out["per_l"].max(axis=1))
    assert out["dist_initial"] == out["dist_truth"][0]
    assert out["l_set"] == [0, 7]


def test_leave_one_out_matches_runs_on_deleted_measurement():
    # sequence l against a reference descent on A, B and y with measurement l deleted
    inst = make_instance(Dimensions(s=2, m=48, K=3), kappa=1.5, sigma=0.1, seed=5)
    cfg = SolverConfig(eta=0.1, max_iters=20)
    l_set = [0, 7, 47]
    out = leave_one_out_trajectories(inst, l_set, eta=cfg.eta, max_iters=cfg.max_iters)
    main = []
    run(inst, cfg, on_iterate=lambda t, st: main.append(st))
    truth = inst.truth
    for k, l in enumerate(l_set):
        held = reference_descent(np.delete(inst.A, l, axis=1), np.delete(inst.B, l, axis=0),
                                 np.delete(inst.y, l), cfg.eta, cfg.max_iters)
        assert len(held) == len(main) == cfg.max_iters + 1
        for t, (st_main, (h, x)) in enumerate(zip(main, held)):
            align = metrics.align_state(st_main, truth)
            ref = DemixState(h=st_main.h / np.conj(align.alpha)[:, None],
                             x=align.alpha[:, None] * st_main.x)
            g = metrics.align_state(DemixState(h=h, x=x), ref).error
            want = metrics.dist_from_errors(g, truth.d)
            assert out["per_l"][t, k] == pytest.approx(want, rel=1e-12)
            assert out["dist_truth"][t] == metrics.dist_from_errors(align.error, truth.d)


@settings(max_examples=10, deadline=None)
@given(l=st.integers(0, 23), seed=st.integers(0, 2**32 - 1))
def test_held_out_measurement_changes_no_bit_of_the_run(l, seed):
    # y[l] and the design vectors a_il of a held-out l never reach the iterates
    inst = make_instance(Dimensions(s=2, m=24, K=3), kappa=1.5, sigma=0.1, seed=1)
    gen = np.random.default_rng(seed)
    A, y = inst.A.copy(), inst.y.copy()
    A[:, l] = gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))
    y[l] = complex(*gen.standard_normal(2))
    cfg = SolverConfig(eta=0.1, max_iters=10)
    runs = []
    for i in (inst, dataclasses.replace(inst, A=A, y=y)):
        states = []
        run(i, cfg, on_iterate=lambda t, z: states.append(z), held_out=l)
        runs.append(b"".join(z.h.tobytes() + z.x.tobytes() for z in states))
    assert runs[0] == runs[1]


def test_leave_one_out_validation(small_instance):
    with pytest.raises(ValueError):
        leave_one_out_trajectories(small_instance, [], eta=0.1, max_iters=2)
    with pytest.raises(IndexError):
        leave_one_out_trajectories(small_instance, [small_instance.dims.m], eta=0.1, max_iters=2)
    with pytest.raises(IndexError, match=r"held-out index -1 outside \[0, 24\)"):
        leave_one_out_trajectories(small_instance, [-1], eta=0.1, max_iters=2)
    for l in (True, 2.0):
        with pytest.raises(ValueError, match="held-out index must be an integer"):
            leave_one_out_trajectories(small_instance, [0, l], eta=0.1, max_iters=2)
    res = leave_one_out_trajectories(small_instance, [np.int64(3)], eta=0.1, max_iters=2)
    assert res["per_l"].shape == (3, 1)
    for n_holdout in (2.5, True):
        with pytest.raises(ValueError, match="n_holdout must be an integer"):
            run_check("verify_loo", small_instance.dims, 1.0, 0.0, 1, n_holdout=n_holdout)
    blind = dataclasses.replace(small_instance, truth=None)
    with pytest.raises(ValueError):
        leave_one_out_trajectories(blind, [0], eta=0.1, max_iters=2)


@pytest.mark.parametrize(
    "check",
    [lambda inst: check_rsc(inst, n_points=1, delta=0.1, rng_seed=1),
     lambda inst: leave_one_out_trajectories(inst, [0], eta=0.1, max_iters=2)],
    ids=["check_rsc", "leave_one_out"],
)
def test_checks_need_two_measurements(check):
    # check_rsc's side conditions divide by log m, and a held-out run at
    # m = 1 has no measurement left to fit
    inst = make_instance(Dimensions(s=1, m=1, K=1), kappa=1.0, sigma=0.0, seed=1)
    with pytest.raises(ValueError, match="needs m >= 2, got m=1"):
        check(inst)


# -------------------------------------------------------------------- reports


def _toy_check(dims, kappa, sigma, seed, *, n=3):
    params = {"n": np.int64(n), "z": 1.5 + 0.5j, "dims": {"s": dims.s}}
    metrics_out = {"ratio": np.float64(0.1), "flag": np.bool_(True), "v": np.arange(3)}
    return params, metrics_out, seed % 2 == 1


def test_run_check_fields_and_note(monkeypatch):
    # a new verify_* experiment is one CHECKS row; run_check names the report
    # after it and lays the check's params over the setting's
    monkeypatch.setitem(verify.CHECKS, "verify_toy", _toy_check)
    rep = run_check("verify_toy", Dimensions(s=2, m=8, K=2), 1.5, 0.1, 11, n=4)
    assert set(rep) == {"check", "params", "seed", "metrics", "pass", "notes"}
    assert rep["check"] == "toy"
    assert rep["pass"] is True
    assert rep["seed"] == 11
    assert rep["params"] == {"dims": {"s": 2}, "kappa": 1.5, "sigma": 0.1, "n": 4, "z": 1.5 + 0.5j}
    assert rep["metrics"]["ratio"] == 0.1
    assert rep["notes"] == [NOISE_MODEL_NOTE]


def test_write_report_sorted_json_with_newline(tmp_path, monkeypatch):
    monkeypatch.setitem(verify.CHECKS, "verify_toy", _toy_check)
    rep = run_check("verify_toy", Dimensions(s=2, m=8, K=2), 1.5, 0.1, 2)
    rep["metrics"]["setting"] = Dimensions(s=2, m=8, K=2)
    rep["metrics"]["w"] = np.complex128(-2.0j)
    path = tmp_path / "report.json"
    write_report(rep, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["pass"] is False
    assert parsed["params"] == {"dims": {"s": 2}, "kappa": 1.5, "sigma": 0.1, "n": 3,
                                "z": {"re": 1.5, "im": 0.5}}
    assert parsed["metrics"] == {"ratio": 0.1, "flag": True, "v": [0, 1, 2],
                                 "setting": {"s": 2, "m": 8, "K": 2},
                                 "w": {"re": 0.0, "im": -2.0}}
    assert type(parsed["params"]["n"]) is int and parsed["metrics"]["flag"] is True
    assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError, match="a report cannot hold set"):
        write_report({"l_set": {1, 2}}, tmp_path / "bad.json")
