"""Spectral initialization, the scaled-step loop, and trajectory recording."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import demix
from demix.objective import DemixState, gradient_arrays, loss
from demix.problem import Dimensions, make_instance
from demix.solver import (
    DegenerateIterateError,
    DivergenceError,
    SolverConfig,
    backprojection_matrices,
    init_from_matrices,
    leading_triple,
    run,
    spectral_init,
    step_arrays,
    wf_step,
)

from conftest import FIG1A_SEEDS, fail_align_on_call, random_state
from oracles import iters_to, lsq_slope, mp_incoherence_a, naive_backprojection


# -------------------------------------------------------------- backprojection


def test_backprojection_matches_naive(small_instance):
    inst = small_instance
    Ms = backprojection_matrices(inst.A, inst.B, inst.y)
    ref = naive_backprojection(inst.A, inst.B, inst.y)
    assert Ms.shape == (inst.dims.s, inst.dims.K, inst.dims.K)
    assert np.allclose(Ms, ref, rtol=1e-12, atol=1e-13)


def test_backprojection_peak_memory():
    # one (m, K) temporary, diag(y) B conjugated in place, and the (s, K, K)
    # result: about 1.3x B's bytes
    inst = make_instance(Dimensions(s=10, m=1600, K=50), kappa=1.0, sigma=0.0, seed=2)
    tracemalloc.start()
    try:
        backprojection_matrices(inst.A, inst.B, inst.y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * inst.B.nbytes, f"peak {peak / inst.B.nbytes:.2f}x B"


# -------------------------------------------------------------- leading triple


def test_leading_triple_matches_dense_svd():
    gen = np.random.default_rng(15)
    for n in (1, 2, 5, 9):
        M = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        sigma, u, v = leading_triple(M)
        want = np.linalg.svd(M, compute_uv=False)[0]
        assert sigma == pytest.approx(want, rel=1e-10)
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-10)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-10)
        # defining equations of a singular triple
        assert np.linalg.norm(M @ v - sigma * u) <= 1e-12 * max(sigma, 1.0)
        assert np.linalg.norm(M.conj().T @ u - sigma * v) <= 1e-12 * max(sigma, 1.0)


def test_leading_triple_exact_rank_one():
    u0 = np.array([3.0, 4.0j, 0.0]) / 5.0
    v0 = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    M = 2.5 * np.outer(u0, np.conj(v0))
    sigma, u, v = leading_triple(M)
    assert sigma == pytest.approx(2.5, rel=1e-12)
    assert abs(np.vdot(u0, u)) == pytest.approx(1.0, rel=1e-10)
    assert abs(np.vdot(v0, v)) == pytest.approx(1.0, rel=1e-10)


def test_leading_triple_zero_matrix():
    sigma, u, v = leading_triple(np.zeros((4, 4), dtype=complex))
    assert sigma == 0.0
    assert np.all(u == 0)


def test_leading_triple_tied_top_pair():
    # no spectral gap: any unit vector in the top subspace is acceptable
    M = np.diag([1.0, 1.0, 0.25]).astype(complex)
    sigma, u, v = leading_triple(M)
    assert sigma == pytest.approx(1.0, rel=1e-9)
    assert np.linalg.norm(M @ v - sigma * u) <= 1e-8


def test_stacked_leading_triple_holds_each_matrix_bits():
    # one SVD call on the stack gives, in row i, the call on matrix i alone,
    # a zero matrix and a tied top pair included
    gen = np.random.default_rng(16)
    Ms = gen.standard_normal((4, 5, 5)) + 1j * gen.standard_normal((4, 5, 5))
    Ms[1] = 0
    Ms[2] = np.diag([1.0, 1.0, 0.25, 0.0, 0.0])
    sigma, u, v = leading_triple(Ms)
    assert sigma.shape == (4,) and u.shape == v.shape == (4, 5)
    assert sigma[1] == 0 and np.all(u[1] == 0)
    for i, M in enumerate(Ms):
        one = leading_triple(M)
        for got, want in zip((sigma[i], u[i], v[i]), one):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ----------------------------------------------------------------- initializer


def test_init_phase_gauge_and_invariance():
    gen = np.random.default_rng(19)
    M = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    st = init_from_matrices(M[None, :, :])
    h = st.h[0]
    k = int(np.argmax(np.abs(h)))
    assert h[k].imag == pytest.approx(0.0, abs=1e-12)
    assert h[k].real > 0
    # a global phase on M moves only the x factor
    st2 = init_from_matrices((np.exp(0.7j) * M)[None, :, :])
    h2 = st2.h[0]
    k2 = int(np.argmax(np.abs(h2)))
    assert h2[k2].imag == pytest.approx(0.0, abs=1e-12)
    assert h2[k2].real > 0
    assert np.allclose(st2.h[0], st.h[0], atol=1e-9)
    P1 = np.outer(st.h[0], np.conj(st.x[0]))
    P2 = np.outer(st2.h[0], np.conj(st2.x[0]))
    assert np.allclose(P2, np.exp(0.7j) * P1, atol=1e-9)


def test_init_scales_by_sqrt_sigma():
    u0 = np.array([1.0, 0.0], dtype=complex)
    v0 = np.array([0.0, 1.0], dtype=complex)
    M = 9.0 * np.outer(u0, np.conj(v0))
    st = init_from_matrices(M[None, :, :])
    assert np.linalg.norm(st.h[0]) == pytest.approx(3.0, rel=1e-10)
    assert np.linalg.norm(st.x[0]) == pytest.approx(3.0, rel=1e-10)


def test_spectral_init_approximates_truth_at_large_m():
    inst = make_instance(Dimensions(s=2, m=6400, K=8), kappa=1.0, sigma=0.0, seed=3)
    st = spectral_init(inst)
    assert demix.metrics.dist(st, inst.truth) < 0.25


# ----------------------------------------------------------------------- step


def test_step_uses_pre_update_norms(small_instance):
    inst = small_instance
    gen = np.random.default_rng(20)
    st = random_state(inst.dims, gen)
    eta = 0.3
    Gh, Gx = gradient_arrays(st, inst)
    hn2 = np.sum(np.abs(st.h) ** 2, axis=1)
    xn2 = np.sum(np.abs(st.x) ** 2, axis=1)
    want_h = st.h - (eta / xn2)[:, None] * Gh
    want_x = st.x - (eta / hn2)[:, None] * Gx
    new = wf_step(st, inst, eta)
    assert np.allclose(new.h, want_h, rtol=1e-13)
    assert np.allclose(new.x, want_x, rtol=1e-13)


def test_step_arrays_rejects_zero_norm(small_instance):
    inst = small_instance
    st = DemixState(
        h=np.zeros((inst.dims.s, inst.dims.K), dtype=complex),
        x=np.ones((inst.dims.s, inst.dims.K), dtype=complex),
    )
    Gh = np.ones_like(st.h)
    with pytest.raises(DegenerateIterateError):
        step_arrays(st, Gh, Gh, 0.1)


def test_truth_is_a_fixed_point(small_instance):
    inst = small_instance
    st = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    for _ in range(5):
        new = wf_step(st, inst, 0.2)
        assert np.array_equal(new.h, st.h)
        assert np.array_equal(new.x, st.x)
        st = new


def test_loss_gauge_invariance_and_phase_commutation(small_instance):
    inst = small_instance
    gen = np.random.default_rng(21)
    st = random_state(inst.dims, gen)
    base = loss(st, inst)
    cs = gen.standard_normal(inst.dims.s) + 1j * gen.standard_normal(inst.dims.s)
    shifted = DemixState(h=st.h / np.conj(cs)[:, None], x=cs[:, None] * st.x)
    assert loss(shifted, inst) == pytest.approx(base, rel=1e-10)

    # global unit phase: stepping commutes with the rotation
    phase = np.exp(0.9j)
    rotated = DemixState(h=phase * st.h, x=phase * st.x)
    a = wf_step(rotated, inst, 0.1)
    b = wf_step(st, inst, 0.1)
    assert np.allclose(a.h, phase * b.h, rtol=1e-10, atol=1e-12)
    assert np.allclose(a.x, phase * b.x, rtol=1e-10, atol=1e-12)
    assert loss(a, inst) == pytest.approx(loss(b, inst), rel=1e-10)


# ------------------------------------------------------------------- full runs


def test_truthless_run_records_only_the_loss(small_instance):
    blind = dataclasses.replace(small_instance, truth=None)
    _, recs = run(blind, SolverConfig(eta=0.2, max_iters=3))
    assert [r.iter for r in recs] == [0, 1, 2, 3]
    for r in recs:
        assert np.isfinite(r.loss)
        assert r.relative_error is None and r.dist is None
        assert r.max_alignment_ratio is None


@pytest.mark.parametrize(
    "field, value, message",
    [("eta", 0.0, "eta must be > 0"), ("max_iters", 0, "max_iters must be >= 1"),
     ("record_every", 0, "record_every must be >= 1"),
     ("stop_tol", -1e-9, "stop_tol must be >= 0"),
     ("max_iters", 2.5, "max_iters must be an integer"),
     ("max_iters", 3.0, "max_iters must be an integer"),
     ("max_iters", True, "max_iters must be an integer"),
     ("record_every", 1.5, "record_every must be an integer"),
     ("record_every", True, "record_every must be an integer"),
     ("eta", np.inf, "eta must be > 0"), ("eta", np.nan, "eta must be > 0"),
     ("stop_tol", np.nan, "stop_tol must be >= 0"), ("stop_tol", np.inf, "stop_tol must be >= 0")],
)
def test_solver_config_rejects_out_of_range_fields(field, value, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{field: value})


def test_solver_config_takes_numpy_integers(small_instance):
    cfg = SolverConfig(eta=0.2, max_iters=np.int64(3), record_every=np.int32(3))
    assert [r.iter for r in run(small_instance, cfg)[1]] == [0, 3]


def test_run_record_invariants(small_instance):
    st, recs = run(small_instance, SolverConfig(eta=0.2, max_iters=40, record_every=1))
    iters = [r.iter for r in recs]
    assert iters[0] == 0
    assert iters == sorted(set(iters))
    assert iters[-1] == 40
    for r in recs:
        for field in ("loss", "relative_error", "dist", "incoherence_a", "incoherence_b"):
            v = getattr(r, field)
            assert v is not None and np.isfinite(v)
        assert np.all(np.isfinite(r.alignment_ratios))
    # init record matches the spectral initializer exactly
    init = spectral_init(small_instance)
    assert recs[0].loss == loss(init, small_instance)


def test_run_determinism_bit_identical(small_instance):
    cfg = SolverConfig(eta=0.2, max_iters=25, record_every=5)
    st1, recs1 = run(small_instance, cfg)
    st2, recs2 = run(small_instance, cfg)
    assert st1.h.tobytes() == st2.h.tobytes()
    assert st1.x.tobytes() == st2.x.tobytes()
    assert [r.loss for r in recs1] == [r.loss for r in recs2]
    assert [r.dist for r in recs1] == [r.dist for r in recs2]


def test_run_record_every_and_stop_tol():
    inst = make_instance(Dimensions(s=1, m=64, K=4), kappa=1.0, sigma=0.0, seed=2)
    st, recs = run(inst, SolverConfig(eta=0.2, max_iters=400, stop_tol=1e-6, record_every=7))
    iters = [r.iter for r in recs]
    assert all(t % 7 == 0 for t in iters[:-1])
    final = recs[-1]
    assert final.relative_error <= 1e-6  # stop tolerance reached...
    assert final.iter % 7 == 0 or final.iter == 400  # ...at a record point
    assert final.iter < 400


def test_run_on_iterate_sees_every_iterate(small_instance):
    seen = []
    st, recs = run(
        small_instance,
        SolverConfig(eta=0.2, max_iters=12, record_every=5),
        on_iterate=lambda t, state: seen.append((t, state.h.copy())),
    )
    assert [t for t, _ in seen] == list(range(13))
    init = spectral_init(small_instance)
    assert np.array_equal(seen[0][1], init.h)
    assert np.array_equal(seen[-1][1], st.h)


@pytest.mark.parametrize(
    "record_every, max_iters, per_source",
    [
        (1, 6, 7),  # records 0..6: each aligned once
        (3, 7, 6),  # records 0, 3, 6, 7: 3 and 6 also align their unrecorded predecessor
    ],
)
def test_run_aligns_each_source_once_per_record(
    small_instance, monkeypatch, record_every, max_iters, per_source
):
    calls = []
    align_source = demix.metrics.align_source

    def counted(*args):
        calls.append(args)
        return align_source(*args)

    monkeypatch.setattr(demix.metrics, "align_source", counted)
    iterates = []
    _, records = run(
        small_instance,
        SolverConfig(eta=0.2, max_iters=max_iters, record_every=record_every),
        on_iterate=lambda t, state: iterates.append(state.copy()),
    )
    s = small_instance.dims.s
    # one stacked call per aligned state, each aligning all s sources
    assert len(calls) == per_source
    assert all(np.shape(args[0]) == (s, small_instance.dims.K) for args in calls)
    assert sum(len(args[0]) for args in calls) == per_source * s
    # each record's ratios are |alpha_t / alpha_{t-1} - 1| of the iterates it saw
    alphas = [demix.metrics.align_state(z, small_instance.truth).alpha for z in iterates]
    assert np.array_equal(records[0].alignment_ratios, np.zeros(s))
    for rec in records[1:]:
        want = np.abs(alphas[rec.iter] / alphas[rec.iter - 1] - 1.0)
        assert np.array_equal(rec.alignment_ratios, want)


def test_run_divergence_carries_partial_records():
    inst = make_instance(Dimensions(s=2, m=64, K=8), kappa=1.0, sigma=0.0, seed=4)
    with pytest.raises(DivergenceError) as info:
        run(inst, SolverConfig(eta=50.0, max_iters=200, record_every=1))
    err = info.value
    assert err.iteration > 0
    assert err.loss_value > 0
    assert len(err.records) >= 1
    assert err.records[0].iter == 0
    assert all(r.iter < err.iteration for r in err.records)


@pytest.mark.parametrize("eta", [1e150, 1e300])
def test_run_divergence_from_a_huge_step(eta):
    # the first step's iterate is finite but too large to align; the loss
    # check still comes first and reports the divergence
    inst = make_instance(Dimensions(s=2, m=64, K=8), kappa=1.0, sigma=0.0, seed=4)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        run(inst, SolverConfig(eta=eta, max_iters=200, record_every=1))
    assert info.value.iteration == 1
    assert [r.iter for r in info.value.records] == [0]


@pytest.mark.parametrize(
    "held_out, error, message",
    [(-1, IndexError, r"held-out index -1 outside \[0, 24\)"),
     (24, IndexError, r"held-out index 24 outside \[0, 24\)"),
     (True, ValueError, "held-out index must be an integer, got True"),
     (2.0, ValueError, "held-out index must be an integer, got 2.0")],
    ids=["negative", "m", "bool", "float"],
)
def test_run_refuses_a_bad_held_out_index(small_instance, held_out, error, message):
    # -1 would delete measurement m - 1 and True would mask all of y
    with pytest.raises(error, match=message):
        run(small_instance, SolverConfig(eta=0.2, max_iters=3), held_out=held_out)


@pytest.mark.parametrize(
    "record_every, seen, kept",
    [
        (1, [0, 1, 2], [0, 1]),  # the third call aligns the iterate at t = 2
        (3, [0, 1, 2, 3], [0]),  # the third call aligns t = 3's unrecorded predecessor
    ],
    ids=["iterate", "predecessor"],
)
def test_run_failure_carries_its_records(small_instance, monkeypatch, record_every, seen, kept):
    fail_align_on_call(monkeypatch, 3)
    iters = []
    with pytest.raises(np.linalg.LinAlgError) as info:
        run(small_instance, SolverConfig(eta=0.2, max_iters=7, record_every=record_every),
            on_iterate=lambda t, state: iters.append(t))
    assert iters == seen
    assert [r.iter for r in info.value.records] == kept


# ------------------------------------------------------ one pass over A


@pytest.mark.parametrize(
    "dims, iters",
    [((2, 97, 16), 40), ((3, 97, 8), 40), ((2, 64, 8), 40), ((10, 2500, 50), 5),
     ((2, 5100, 50), 5)],
    ids=["s2_m97_K16", "s3_m97_K8", "s2_m64_K8", "fig1a", "three_row_blocks"],
)
def test_records_do_not_move_the_trajectory(dims, iters):
    # a record's d-pair rides in the product that forms Q; Q keeps its bits
    # whatever the d-pair holds, so recording every iterate or only the ends
    # gives the same run, and the same records where both record
    inst = make_instance(Dimensions(*dims), kappa=1.5, sigma=0.05, seed=3)
    (st_a, rec_a), (st_b, rec_b) = (
        run(inst, SolverConfig(eta=0.1, max_iters=iters, record_every=k)) for k in (1, iters)
    )
    assert st_a.h.tobytes() == st_b.h.tobytes() and st_a.x.tobytes() == st_b.x.tobytes()

    def bits(r):
        fields = (r.loss, r.relative_error, r.dist, r.incoherence_a, r.incoherence_b,
                  r.alignment_ratios, r.alignment.alpha, r.alignment.error)
        return [np.asarray(v).tobytes() for v in fields]

    by_iter = {r.iter: bits(r) for r in rec_a}
    assert [r.iter for r in rec_b] == [0, iters]
    assert all(bits(r) == by_iter[r.iter] for r in rec_b)


def test_recorded_run_forms_one_design_product_per_iteration(small_instance, monkeypatch):
    # the gradient's forward_parts is the one pass over A per iteration, and
    # it carries the record's d-pair exactly at the recorded iterations
    calls = []
    forward_parts = demix.objective.forward_parts

    def counted(H, X, A, B, D=None):
        calls.append(D is not None)
        return forward_parts(H, X, A, B, D)

    monkeypatch.setattr(demix.objective, "forward_parts", counted)
    for record_every, max_iters, recorded in ((1, 6, range(7)), (3, 7, (0, 3, 6, 7))):
        calls.clear()
        cfg = SolverConfig(eta=0.2, max_iters=max_iters, record_every=record_every)
        _, records = run(small_instance, cfg)
        assert [r.iter for r in records] == list(recorded)
        assert calls == [t in recorded for t in range(max_iters + 1)]


@pytest.mark.parametrize("truth", [True, False], ids=["truth", "blind"])
@pytest.mark.parametrize("zeroed", ["y", "design_row"])
def test_zero_norm_source_is_a_degenerate_iterate(truth, zeroed):
    # a zero y, or a zero design for source 1, gives a spectral start with a
    # zero-norm source; with a truth it cannot be aligned, without one it
    # cannot be stepped, and either way on_iterate sees t = 0 first
    inst = make_instance(Dimensions(2, 64, 8), seed=1)
    if zeroed == "y":
        inst = dataclasses.replace(inst, y=np.zeros(64, complex))
    else:
        A = inst.A.copy()
        A[1] = 0
        y, e = demix.synthesize_measurements(inst.truth, A, inst.sigma, inst.seed)
        inst = dataclasses.replace(inst, A=A, y=y, e=e)
    if not truth:
        inst = dataclasses.replace(inst, truth=None)
    seen = []
    with pytest.raises(DegenerateIterateError) as info:
        run(inst, SolverConfig(eta=0.1, max_iters=5), on_iterate=lambda t, st: seen.append(t))
    assert seen == [0]
    # the blind run has made its record at t = 0; the truth's record needs an alignment
    assert [r.iter for r in info.value.records] == ([] if truth else [0])


@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, lambda A: A.astype(np.complex64), lambda A: A.real.copy()],
    ids=["fortran", "complex64", "real"],
)
def test_design_of_any_layout_runs_as_its_c_ordered_copy(layout):
    inst = make_instance(Dimensions(s=2, m=64, K=8), kappa=1.5, sigma=0.1, seed=5)
    A = layout(inst.A)
    runs = [
        run(dataclasses.replace(inst, A=a), SolverConfig(eta=0.1, max_iters=20, record_every=1))
        for a in (A, np.ascontiguousarray(A, dtype=complex))
    ]
    (st_a, rec_a), (st_b, rec_b) = runs
    assert st_a.h.tobytes() == st_b.h.tobytes() and st_a.x.tobytes() == st_b.x.tobytes()
    fields = ("loss", "relative_error", "dist", "incoherence_a", "incoherence_b")
    assert [[getattr(r, f) for f in fields] for r in rec_a] == [
        [getattr(r, f) for f in fields] for r in rec_b
    ]


def test_recorded_inc_a_is_accurate_near_the_truth():
    # inc_a is read off A_i conj(d_i) formed from d_i itself; taking it as
    # conj(alpha_i) Q_ij - Q'_ij would lose about eps / ||d_i|| of it here
    pytest.importorskip("mpmath")
    inst = make_instance(Dimensions(s=2, m=64, K=4), kappa=1.5, sigma=0.0, seed=2)
    st, records = run(inst, SolverConfig(eta=0.2, max_iters=2000, stop_tol=1e-9, record_every=1))
    final = records[-1]
    assert final.relative_error <= 1e-8
    D = final.alignment.alpha[:, None] * st.x - inst.truth.x
    want = mp_incoherence_a(inst.A, D, inst.truth.x)
    assert abs(final.incoherence_a - want) <= 1e-13 * want


# ----------------------------------------------------- benchmark trajectories


def test_noiseless_loss_monotone_after_early_iterations(benchmark_runs):
    for seed in FIG1A_SEEDS:
        losses = [r.loss for r in benchmark_runs[seed]]
        for k in range(10, len(losses) - 1):
            assert losses[k + 1] <= losses[k], f"seed {seed} rose at iter {k}"


def test_convergence_rate_insensitive_to_problem_size(dimension_pair_runs):
    slopes = {}
    for K, recs in dimension_pair_runs.items():
        pts = [(r.iter, np.log10(r.relative_error)) for r in recs
               if r.relative_error is not None and 1e-9 < r.relative_error <= 1e-1]
        slopes[K] = lsq_slope([p[0] for p in pts], [p[1] for p in pts])
    assert slopes[50] < 0 and slopes[100] < 0
    assert abs(slopes[50] - slopes[100]) <= 0.1 * abs(slopes[50])


def test_recorded_relative_error_reaches_stop_level(dimension_pair_runs):
    for K, recs in dimension_pair_runs.items():
        assert iters_to(recs, 1e-5) is not None
