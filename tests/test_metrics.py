"""Alignment solver, distance, relative error, incoherence measures."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demix.metrics import (
    Alignment,
    align_source,
    align_state,
    dist,
    incoherence_measures,
    incoherence_mu,
    relative_error,
)
from demix.objective import DemixState
from demix.problem import (
    Dimensions,
    forward_parts,
    make_instance,
    sample_ground_truth,
)

from oracles import align_objective, align_source_unit, grid_align, mp_align


def _pair(gen, K=5, scale_lo=0.5, scale_hi=2.0):
    def vec(scale):
        v = gen.standard_normal(K) + 1j * gen.standard_normal(K)
        return scale * v / np.linalg.norm(v)

    return (
        vec(gen.uniform(scale_lo, scale_hi)),
        vec(gen.uniform(scale_lo, scale_hi)),
        vec(gen.uniform(scale_lo, scale_hi)),
        vec(gen.uniform(scale_lo, scale_hi)),
    )


# ------------------------------------------------------------------ alignment


def test_align_recovers_exact_gauge():
    gen = np.random.default_rng(4)
    for _ in range(20):
        h_ref = gen.standard_normal(6) + 1j * gen.standard_normal(6)
        x_ref = gen.standard_normal(6) + 1j * gen.standard_normal(6)
        c = complex(gen.standard_normal() + 1j * gen.standard_normal())
        h = h_ref / np.conj(c)
        x = c * x_ref
        # alpha = 1/c undoes the scaling perfectly
        alpha = align_source(h, x, h_ref, x_ref)
        assert align_objective(alpha, h, x, h_ref, x_ref) <= 1e-12
        assert abs(alpha - 1 / c) <= 1e-7 * abs(1 / c)


def test_align_orthogonal_closed_form():
    # with h \perp h_ref and x \perp x_ref only the norms matter:
    # g(beta) = nh/beta^2 + nx beta^2 + const, minimized at (nh/nx)^(1/4)
    h = np.array([1.0 + 0j, 0.0]) * 3.0
    h_ref = np.array([0.0, 1.0 + 0j])
    x = np.array([0.0, 2.0 + 0j])
    x_ref = np.array([1.0 + 0j, 0.0])
    alpha = align_source(h, x, h_ref, x_ref)
    assert alpha == pytest.approx((9.0 / 4.0) ** 0.25, rel=1e-9)


def test_align_matches_grid_oracle():
    gen = np.random.default_rng(44)
    for _ in range(20):
        h, x, h_ref, x_ref = _pair(gen)
        alpha = align_source(h, x, h_ref, x_ref)
        got = align_objective(alpha, h, x, h_ref, x_ref)
        _, want = grid_align(h, x, h_ref, x_ref)
        assert got <= want + 1e-9


def test_align_never_beaten_by_perturbations():
    gen = np.random.default_rng(45)
    for _ in range(10):
        h, x, h_ref, x_ref = _pair(gen)
        al = align_state(DemixState(h=[h], x=[x]), DemixState(h=[h_ref], x=[x_ref]))
        alpha, base = al.alpha[0], al.error[0]
        noise = 1.0 + 0.1 * (gen.uniform(-1, 1, 1000) + 1j * gen.uniform(-1, 1, 1000))
        for cand in alpha * noise:
            assert align_objective(cand, h, x, h_ref, x_ref) >= base - 1e-12


def test_align_unit_constrained_never_below_unconstrained():
    gen = np.random.default_rng(46)
    for _ in range(25):
        h, x, h_ref, x_ref = _pair(gen, scale_lo=0.2, scale_hi=5.0)
        free = align_objective(align_source(h, x, h_ref, x_ref), h, x, h_ref, x_ref)
        unit = align_source_unit(h, x, h_ref, x_ref)
        assert abs(abs(unit) - 1.0) <= 1e-12
        assert align_objective(unit, h, x, h_ref, x_ref) >= free - 1e-12


def test_align_unit_optimal_over_phases():
    gen = np.random.default_rng(47)
    h, x, h_ref, x_ref = _pair(gen)
    unit = align_source_unit(h, x, h_ref, x_ref)
    base = align_objective(unit, h, x, h_ref, x_ref)
    for theta in np.linspace(0, 2 * np.pi, 720):
        assert align_objective(np.exp(1j * theta), h, x, h_ref, x_ref) >= base - 1e-12


def test_align_rejects_zero_vectors():
    z = np.zeros(3, dtype=complex)
    v = np.ones(3, dtype=complex)
    with pytest.raises(ValueError):
        align_source(z, v, v, v)
    with pytest.raises(ValueError):
        align_source_unit(v, z, v, v)
    with pytest.raises(ValueError):
        align_source(np.stack([v, v]), np.stack([v, z]), np.stack([v, v]), np.stack([v, v]))
    with pytest.raises(ValueError):
        align_source(np.stack([v, v]), v, np.stack([v, v]), v)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    re=st.floats(-2.0, 2.0),
    im=st.floats(-2.0, 2.0),
)
def test_align_gauge_equivariance(seed, re, im):
    c = complex(re, im)
    if abs(c) < 1e-3:
        c = 1.0 + 0j
    gen = np.random.default_rng(seed)
    h, x, h_ref, x_ref = _pair(gen)
    alpha = align_source(h, x, h_ref, x_ref)
    # the gauge motion (h, x) -> (h/conj(c), c x) shifts the optimum to
    # alpha/c and leaves the optimal objective value unchanged
    alpha_c = align_source(h / np.conj(c), c * x, h_ref, x_ref)
    g1 = align_objective(alpha, h, x, h_ref, x_ref)
    g2 = align_objective(alpha_c, h / np.conj(c), c * x, h_ref, x_ref)
    assert g2 == pytest.approx(g1, rel=1e-7, abs=1e-9)
    assert abs(alpha_c * c - alpha) <= 1e-5 * abs(alpha)


def _near_truth_pairs(gen, K=6):
    # iterates at relative distance 1e-1 ... 1e-12 from a balanced reference,
    # in a random gauge: the regime of converging runs, where the sextic has
    # a near-double root next to the minimizer
    def vec():
        return gen.standard_normal(K) + 1j * gen.standard_normal(K)

    for e in np.geomspace(1e-1, 1e-12, 12):
        h_ref, x_ref = vec(), vec()
        h_ref, x_ref = h_ref / np.linalg.norm(h_ref), x_ref / np.linalg.norm(x_ref)
        c = complex(gen.standard_normal(), gen.standard_normal())
        yield (h_ref + e * vec()) / np.conj(c), c * (x_ref + e * vec()), h_ref, x_ref


def _alignment_cases(seed):
    gen = np.random.default_rng(seed)
    yield from (_pair(gen) for _ in range(12))
    yield from _near_truth_pairs(gen)


def test_align_is_well_conditioned():
    # a relative perturbation of 1e-15 in (h, x) must move alpha by O(1e-15):
    # a search that stops where phi is flat moves it by ~sqrt(eps)
    gen = np.random.default_rng(50)
    worst = 0.0
    for h, x, h_ref, x_ref in _alignment_cases(48):
        alpha = align_source(h, x, h_ref, x_ref)
        for _ in range(4):
            jh = 1.0 + 1e-15 * (gen.standard_normal(h.shape) + 1j * gen.standard_normal(h.shape))
            jx = 1.0 + 1e-15 * (gen.standard_normal(x.shape) + 1j * gen.standard_normal(x.shape))
            moved = align_source(h * jh, x * jx, h_ref, x_ref)
            worst = max(worst, abs(moved - alpha) / abs(alpha))
    assert worst <= 1e-13, worst


def test_align_matches_high_precision_root():
    pytest.importorskip("mpmath")
    for h, x, h_ref, x_ref in _alignment_cases(49):
        beta0 = abs(grid_align(h, x, h_ref, x_ref)[0])
        want = complex(mp_align(h, x, h_ref, x_ref, beta0))
        alpha = align_source(h, x, h_ref, x_ref)
        assert abs(alpha - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize(
    "ch, cx, c_ref",
    [(1e150, 1.0, 1.0), (1e200, 1.0, 1.0), (1e300, 1.0, 1.0), (1e-44, 3.7e175, 1e-220)],
    ids=["1e+150", "1e+200", "1e+300", "overflowing-norm"],
)
def test_align_refuses_an_overflowing_pair_with_linalg_error(ch, cx, c_ref):
    # the sextic's coefficients overflow, and eigvals refuses them, or ||x||^2
    # overflows while the sextic stays finite, and align_source refuses it
    # up front; the float code raises no OverflowError or ValueError
    gen = np.random.default_rng(54)
    h, x, h_ref, x_ref = _pair(gen)
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            align_source(h * ch, x * cx, h_ref * c_ref, x_ref * c_ref)


def _stacked_cases(seed, K=6):
    # one (s, K) stack of generic, near-truth, p = 0, q = 0 and p = q = 0 rows;
    # disjoint supports make p or q exactly zero
    gen = np.random.default_rng(seed)

    def vec(lo, hi):
        v = np.zeros(K, dtype=complex)
        v[lo:hi] = gen.standard_normal(hi - lo) + 1j * gen.standard_normal(hi - lo)
        return v

    rows = [_pair(gen, K) for _ in range(4)] + list(_near_truth_pairs(gen, K))
    half = K // 2
    rows.append((vec(0, half), vec(0, K), vec(half, K), vec(0, K)))  # p = 0
    rows.append((vec(0, K), vec(0, half), vec(0, K), vec(half, K)))  # q = 0
    rows.append((vec(0, half), vec(0, half), vec(half, K), vec(half, K)))  # p = q = 0
    return tuple(np.array(col) for col in zip(*rows))


def test_stacked_align_matches_high_precision_root():
    pytest.importorskip("mpmath")
    h, x, h_ref, x_ref = _stacked_cases(51)
    alpha = align_source(h, x, h_ref, x_ref)
    assert alpha.shape == (len(h),)
    for i, row in enumerate(zip(h, x, h_ref, x_ref)):
        want = complex(mp_align(*row, abs(grid_align(*row)[0])))
        assert abs(alpha[i] - want) <= 1e-14 * abs(want), i


def test_stacked_align_rows_equal_single_calls():
    for seed in (52, 53):
        h, x, h_ref, x_ref = _stacked_cases(seed)
        stacked = align_state(DemixState(h=h, x=x), DemixState(h=h_ref, x=x_ref))
        for i in range(len(h)):
            a_i = align_source(h[i], x[i], h_ref[i], x_ref[i])
            row = slice(i, i + 1)
            g_i = align_state(DemixState(h=h[row], x=x[row]),
                              DemixState(h=h_ref[row], x=x_ref[row])).error
            assert stacked.alpha[i].tobytes() == np.complex128(a_i).tobytes(), i
            assert stacked.error[i].tobytes() == g_i.tobytes(), i


# ------------------------------------------------------------ dist / rel. err


def _gauge_shift(state, cs):
    h = state.h.copy()
    x = state.x.copy()
    for i, c in enumerate(cs):
        h[i] = h[i] / np.conj(c)
        x[i] = c * x[i]
    return DemixState(h=h, x=x)


def test_metrics_vanish_at_truth(small_instance):
    # both are accurate to a few ulps here; the bounds predate that and are kept
    truth = small_instance.truth
    st = DemixState(h=truth.h.copy(), x=truth.x.copy())
    assert dist(st, truth) <= 1e-7
    assert relative_error(st, truth) <= 1e-7


def test_gauge_invariance(small_instance):
    gen = np.random.default_rng(6)
    truth = small_instance.truth
    st = DemixState(
        h=truth.h + 0.1 * (gen.standard_normal(truth.h.shape) + 1j * gen.standard_normal(truth.h.shape)),
        x=truth.x + 0.1 * (gen.standard_normal(truth.x.shape) + 1j * gen.standard_normal(truth.x.shape)),
    )
    d0 = dist(st, truth)
    r0 = relative_error(st, truth)
    for _ in range(5):
        cs = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        shifted = _gauge_shift(st, cs)
        assert dist(shifted, truth) == pytest.approx(d0, abs=1e-10, rel=1e-10)
        assert relative_error(shifted, truth) == pytest.approx(r0, abs=1e-10, rel=1e-10)


def test_dist_error_compatibility(small_instance):
    gen = np.random.default_rng(60)
    truth = small_instance.truth
    st = DemixState(
        h=truth.h + 0.05 * gen.standard_normal(truth.h.shape),
        x=truth.x.copy(),
    )
    assert dist(st, truth) > 1e-3
    assert relative_error(st, truth) > 1e-4
    gauged = _gauge_shift(
        DemixState(h=truth.h.copy(), x=truth.x.copy()), [2.0 + 1j, 0.5 - 0.25j]
    )
    # pure gauge motion: products unchanged, both metrics stay at the floor
    assert relative_error(gauged, truth) <= 1e-7
    assert dist(gauged, truth) <= 1e-7


def test_relative_error_matches_full_matrices(small_instance):
    gen = np.random.default_rng(61)
    truth = small_instance.truth

    def noise(shape):
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

    states = [DemixState(h=noise(truth.h.shape), x=noise(truth.x.shape))]
    # near-truth states in a random gauge, relative errors 1e-6 ... 1e-12,
    # where an expansion of the squared norm cancels to nothing
    for e in np.geomspace(1e-6, 1e-12, 4):
        cs = noise(truth.h.shape[0])
        states.append(
            _gauge_shift(
                DemixState(h=truth.h + e * noise(truth.h.shape), x=truth.x + e * noise(truth.x.shape)),
                cs,
            )
        )
    for st in states:
        num = 0.0
        den = 0.0
        for i in range(truth.h.shape[0]):
            diff = np.outer(st.h[i], np.conj(st.x[i])) - np.outer(truth.h[i], np.conj(truth.x[i]))
            num += np.linalg.norm(diff, "fro")
            den += np.linalg.norm(np.outer(truth.h[i], np.conj(truth.x[i])), "fro")
        assert relative_error(st, truth) == pytest.approx(num / den, rel=1e-10)


def test_relative_error_follows_its_truth(small_instance):
    # the truth's products are cached on the truth object: a replaced or
    # copied truth forms its own, after a call on the original
    truth = small_instance.truth
    gen = np.random.default_rng(64)
    st = DemixState(
        h=truth.h + 0.3 * gen.standard_normal(truth.h.shape),
        x=truth.x + 0.3 * gen.standard_normal(truth.x.shape),
    )

    def dense(ref):
        num = sum(np.linalg.norm(np.outer(h, np.conj(x)) - np.outer(hr, np.conj(xr)))
                  for h, x, hr, xr in zip(st.h, st.x, ref.h, ref.x))
        return num / sum(np.linalg.norm(hr) * np.linalg.norm(xr) for hr, xr in zip(ref.h, ref.x))

    first = relative_error(st, truth)
    for ref in (dataclasses.replace(truth, h=2 * truth.h), truth.copy(), truth):
        assert relative_error(st, ref) == pytest.approx(dense(ref), rel=1e-13)
    assert relative_error(st, truth) == first
    assert relative_error(st, dataclasses.replace(truth, h=2 * truth.h)) != first


def test_dist_matches_per_source_definition(small_instance):
    gen = np.random.default_rng(62)
    truth = small_instance.truth
    st = DemixState(
        h=truth.h + 0.2 * (gen.standard_normal(truth.h.shape) + 1j * gen.standard_normal(truth.h.shape)),
        x=truth.x + 0.2 * (gen.standard_normal(truth.x.shape) + 1j * gen.standard_normal(truth.x.shape)),
    )
    total = 0.0
    for i in range(truth.h.shape[0]):
        row = (st.h[i], st.x[i], truth.h[i], truth.x[i])
        total += align_objective(align_source(*row), *row) / truth.d[i]
    assert dist(st, truth) == pytest.approx(np.sqrt(total), rel=1e-12)


def test_dist_shape_mismatch():
    truth = sample_ground_truth(Dimensions(s=2, m=8, K=3), kappa=1.0, rng_seed=1)
    st = DemixState(h=np.ones((1, 3), dtype=complex), x=np.ones((1, 3), dtype=complex))
    with pytest.raises(ValueError):
        dist(st, truth)
    with pytest.raises(ValueError):
        relative_error(st, truth)


# ---------------------------------------------------------------- incoherence


def test_mu_bounds_over_random_truths():
    gen = np.random.default_rng(63)
    for _ in range(10):
        K = int(gen.integers(2, 8))
        m = int(gen.integers(K, 64))
        inst = make_instance(
            Dimensions(s=int(gen.integers(1, 4)), m=m, K=K),
            kappa=1.0,
            sigma=0.0,
            seed=int(gen.integers(1 << 30)),
        )
        mu = incoherence_mu(inst.truth, m)
        assert 1.0 - 1e-12 <= mu <= np.sqrt(K) + 1e-12
        # the inverse DFT against the dense product with the DFT rows
        h = inst.truth.h
        dense = np.abs(inst.B @ np.conj(h).T) / np.linalg.norm(h, axis=1)[None, :]
        assert mu == pytest.approx(np.sqrt(m) * np.max(dense), rel=1e-14)


@pytest.mark.parametrize("m", [1, 4, 7])
def test_mu_refuses_fewer_measurements_than_k(m):
    # an inverse DFT of length m < K would crop h and give a wrong mu
    truth = make_instance(Dimensions(2, 64, 8), seed=1).truth
    with pytest.raises(ValueError, match=f"m >= K, got m={m} and K=8"):
        incoherence_mu(truth, m)
    assert incoherence_mu(truth, 8) >= 1.0 - 1e-12


def _record_products(st, truth, inst, alignments):
    # P and QD as run forms them for a record
    D = alignments.alpha[:, None] * st.x - truth.x
    P, _, _, QD = forward_parts(st.h, st.x, inst.A, inst.B, D)
    return P, QD


def test_incoherence_measures_at_truth(small_instance):
    inst = small_instance
    st = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    alignments = align_state(st, inst.truth)
    assert np.allclose(alignments.alpha, 1.0, atol=1e-8)
    P, QD = _record_products(st, inst.truth, inst, alignments)
    inc_a, inc_b = incoherence_measures(inst.truth, alignments, P, QD)
    assert inc_a <= 1e-7
    want_b = incoherence_mu(inst.truth, inst.dims.m) / np.sqrt(inst.dims.m)
    assert inc_b == pytest.approx(want_b, rel=1e-6)


def test_incoherence_b_from_forward_map_matches_direct_formula(small_instance):
    # inc_b = max |P_ji| / (|alpha_i| ||h'_i||) against |b_j^*(h_i / conj(alpha_i))| / ||h'_i||
    inst, truth = small_instance, small_instance.truth
    gen = np.random.default_rng(65)
    shape = (2,) + truth.h.shape
    noise = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    st = _gauge_shift(
        DemixState(h=truth.h + 0.2 * noise[0], x=truth.x + 0.2 * noise[1]), [0.3 - 2.1j, 1.7 + 0.4j]
    )
    alignments = align_state(st, truth)
    _, inc_b = incoherence_measures(truth, alignments, *_record_products(st, truth, inst, alignments))
    direct = max(
        abs(np.vdot(inst.B[j], st.h[i] / np.conj(alignments.alpha[i]))) / np.linalg.norm(truth.h[i])
        for i in range(inst.dims.s)
        for j in range(inst.dims.m)
    )
    assert abs(inc_b - direct) <= 8 * np.finfo(float).eps * direct


def _elementwise_incoherence(truth, alpha, P, QD):
    # the maxima of the elementwise quotients, as the docstring states them
    xn = np.linalg.norm(truth.x, axis=1)
    hn = np.abs(alpha) * np.linalg.norm(truth.h, axis=1)
    return np.max(np.abs(QD) / xn[:, None]), np.max(np.abs(P) / hn[None, :])


@pytest.mark.parametrize("case", ["random", "zero_row", "tied_maxima"])
def test_incoherence_measures_are_the_elementwise_maxima_bit_for_bit(case):
    gen = np.random.default_rng(66)
    s, m, K = 3, 40, 5
    truth = sample_ground_truth(Dimensions(s, m, K), kappa=2.0, rng_seed=7)
    for _ in range(20):
        QD = gen.standard_normal((s, m)) + 1j * gen.standard_normal((s, m))
        P = (gen.standard_normal((s, m)) + 1j * gen.standard_normal((s, m))).T
        if case == "zero_row":
            QD[1] = 0
            P[:, 2] = 0
        elif case == "tied_maxima":  # every row's maximum taken twice, and shared across rows
            QD[:, 3] = QD[:, 17] = 9.0 * np.exp(1j * gen.uniform(0, 6.3, s))
            P[5, :] = P[30, :] = 7.0j
        alpha = gen.standard_normal(s) + 1j * gen.standard_normal(s)
        got = incoherence_measures(truth, Alignment(alpha=alpha, error=np.zeros(s)), P, QD)
        want = _elementwise_incoherence(truth, alpha, P, QD)
        assert [np.float64(v).tobytes() for v in got] == [v.tobytes() for v in want]


def test_incoherence_requires_alignments(small_instance):
    inst = small_instance
    st = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    P, QD = _record_products(st, inst.truth, inst, align_state(st, inst.truth))
    with pytest.raises(ValueError):
        incoherence_measures(inst.truth, None, P, QD)
