"""Loss, gradients, per-source clean Hessians."""

import numpy as np
import pytest

import demix
from demix.objective import (
    DemixState,
    SizeCapError,
    gradient_arrays,
    loss,
    residuals,
    source_hessians,
)
from demix.problem import Dimensions, ProblemInstance, ShapeError, make_instance

from conftest import random_state
from oracles import (
    clean_loss,
    clean_residuals,
    fd_directional,
    fd_real_gradient,
    fd_second_directional,
    lsq_slope,
    naive_gradient,
    naive_loss,
    perturbed,
    quadratic_form,
)


def scalar_instance():
    """The 1x1x1 calibration case: a = b = 1, y = 0."""
    dims = Dimensions(s=1, m=1, K=1)
    one = np.ones((1, 1, 1), dtype=complex)
    return ProblemInstance(
        dims=dims,
        A=one,
        B=np.ones((1, 1), dtype=complex),
        y=np.zeros(1, dtype=complex),
        e=np.zeros(0, dtype=complex),
        sigma=0.0,
        seed=0,
        truth=None,
    )


def test_scalar_calibration_case_frozen():
    # f(h, x) = |h conj(x)|^2; at h = x = 1 the conjugate-coordinate
    # gradient is exactly (1, 1) and the real-parameterization gradient
    # is exactly twice its real part. This pins the convention factor 2.
    inst = scalar_instance()
    st = DemixState(h=np.ones((1, 1), dtype=complex), x=np.ones((1, 1), dtype=complex))
    assert loss(st, inst) == 1.0
    Gh, Gx = gradient_arrays(st, inst)
    assert Gh[0, 0] == 1.0 + 0j
    assert Gx[0, 0] == 1.0 + 0j

    f = lambda state: loss(state, inst)
    dre_h, dim_h, dre_x, dim_x = fd_real_gradient(f, st, step=1e-6)
    assert dre_h[0, 0] == pytest.approx(2.0 * Gh[0, 0].real, rel=1e-8)
    assert dim_h[0, 0] == pytest.approx(2.0 * Gh[0, 0].imag, abs=1e-8)
    assert dre_x[0, 0] == pytest.approx(2.0 * Gx[0, 0].real, rel=1e-8)
    assert dim_x[0, 0] == pytest.approx(2.0 * Gx[0, 0].imag, abs=1e-8)


def _random_cases(n, with_noise=True):
    gen = np.random.default_rng(1234)
    for _ in range(n):
        s = int(gen.integers(1, 4))
        K = int(gen.integers(1, 5))
        m = int(gen.integers(K, 13))
        sigma = float(gen.choice([0.0, 0.3])) if with_noise else 0.0
        inst = make_instance(
            Dimensions(s=s, m=m, K=K), kappa=1.0, sigma=sigma, seed=int(gen.integers(1 << 30))
        )
        yield inst, random_state(inst.dims, gen)


def test_loss_and_gradient_match_naive_loops():
    for inst, st in _random_cases(10):
        assert loss(st, inst) == pytest.approx(naive_loss(st, inst), rel=1e-12)
        Gh, Gx = gradient_arrays(st, inst)
        Nh, Nx = naive_gradient(st, inst)
        assert np.allclose(Gh, Nh, rtol=1e-11, atol=1e-12)
        assert np.allclose(Gx, Nx, rtol=1e-11, atol=1e-12)


def test_gradient_matches_real_finite_differences():
    for inst, st in _random_cases(4):
        f = lambda state: loss(state, inst)
        scale = max(np.max(np.abs(st.h)), np.max(np.abs(st.x)), 1.0)
        dre_h, dim_h, dre_x, dim_x = fd_real_gradient(f, st, step=1e-5 * scale)
        Gh, Gx = gradient_arrays(st, inst)
        got = np.concatenate(
            [dre_h.ravel(), dim_h.ravel(), dre_x.ravel(), dim_x.ravel()]
        )
        want = 2.0 * np.concatenate(
            [Gh.real.ravel(), Gh.imag.ravel(), Gx.real.ravel(), Gx.imag.ravel()]
        )
        denom = max(np.max(np.abs(want)), 1e-9)
        assert np.max(np.abs(got - want)) / denom <= 1e-6


def test_directional_derivative_identity():
    gen = np.random.default_rng(7)
    for inst, st in _random_cases(5):
        f = lambda state: loss(state, inst)
        shape = st.h.shape
        dh = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        dx = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        Gh, Gx = gradient_arrays(st, inst)
        analytic = 2.0 * float(np.real(np.vdot(Gh, dh) + np.vdot(Gx, dx)))
        numeric = fd_directional(f, st, dh, dx, 1e-6)
        assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-8)


def test_zero_residual_stationarity_exact(small_instance):
    inst = small_instance
    st = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    Gh, Gx = gradient_arrays(st, inst)
    assert np.all(Gh == 0)
    assert np.all(Gx == 0)


def test_loss_at_truth_equals_noise_energy(noisy_instance):
    inst = noisy_instance
    st = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    # residual(truth) is exactly -e, so the loss is exactly vdot(e, e)
    assert loss(st, inst) == float(np.real(np.vdot(inst.e, inst.e)))
    assert clean_loss(st, inst) == 0.0


def test_clean_vs_measured_residuals(noisy_instance):
    gen = np.random.default_rng(3)
    st = random_state(noisy_instance.dims, gen)
    r = residuals(st, noisy_instance)
    rc = clean_residuals(st, noisy_instance)
    assert np.allclose(rc, r + noisy_instance.e, rtol=1e-12, atol=1e-12)


def test_clean_requires_truth(small_instance):
    inst = small_instance
    bare = ProblemInstance(
        dims=inst.dims, A=inst.A, B=inst.B, y=inst.y, e=inst.e,
        sigma=inst.sigma, seed=inst.seed, truth=None,
    )
    st = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    with pytest.raises(ValueError):
        clean_residuals(st, bare)


def test_state_shape_mismatch(small_instance):
    st = DemixState(h=np.ones((3, 4), dtype=complex), x=np.ones((3, 4), dtype=complex))
    with pytest.raises(ShapeError):
        loss(st, small_instance)


# -------------------------------------------------------------------- Hessian


def test_hessian_hermitian(small_instance):
    gen = np.random.default_rng(17)
    st = random_state(small_instance.dims, gen)
    for H in source_hessians(st, small_instance):
        assert np.max(np.abs(H - H.conj().T)) <= 1e-12 * max(1.0, np.abs(H).max())


def test_hessian_clean_coupling_vanishes_at_truth(small_instance):
    inst = small_instance
    st = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    K = inst.dims.K
    for H in source_hessians(st, inst):
        assert np.all(H[:K, K : 2 * K] == 0)  # C2


def test_hessian_quadratic_form_matches_second_differences():
    gen = np.random.default_rng(23)
    inst = make_instance(Dimensions(s=2, m=16, K=3), kappa=1.0, sigma=0.1, seed=77)
    st = random_state(inst.dims, gen)
    Hs = source_hessians(st, inst)
    for i in range(inst.dims.s):
        dh1 = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        dx1 = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        dh = np.zeros_like(st.h)
        dx = np.zeros_like(st.x)
        dh[i], dx[i] = dh1, dx1
        qf = quadratic_form(Hs[i], dh1, dx1)
        fd = fd_second_directional(lambda s_: clean_loss(s_, inst), st, dh, dx, 1e-4)
        assert fd == pytest.approx(qf, rel=1e-5)


def test_quadratic_expansion_cubic_remainder():
    # f(z + t d) - f(z) - 2 t Re<g, d> - (t^2/2) u^* H u must shrink like t^3;
    # at sigma = 0 the clean Hessian is the Hessian of the loss
    gen = np.random.default_rng(29)
    inst = make_instance(Dimensions(s=1, m=10, K=2), kappa=1.0, sigma=0.0, seed=5)
    st = random_state(inst.dims, gen)
    dh = gen.standard_normal((1, 2)) + 1j * gen.standard_normal((1, 2))
    dx = gen.standard_normal((1, 2)) + 1j * gen.standard_normal((1, 2))
    Gh, Gx = gradient_arrays(st, inst)
    lin = 2.0 * float(np.real(np.vdot(Gh, dh) + np.vdot(Gx, dx)))
    H = source_hessians(st, inst)[0]
    quad = 0.5 * quadratic_form(H, dh[0], dx[0])
    f0 = loss(st, inst)
    ts = np.logspace(-3, -1.5, 6)
    remainders = []
    for t in ts:
        ft = loss(perturbed(st, dh, dx, t), inst)
        remainders.append(abs(ft - f0 - t * lin - t**2 * quad))
    slope = lsq_slope(np.log(ts), np.log(remainders))
    assert slope >= 2.7


def test_source_hessians_size_cap():
    # 4sK = 4104 is over the 4096 dense-Hessian cap
    s, m, K = 2, 513, 513
    inst = ProblemInstance(
        dims=Dimensions(s=s, m=m, K=K), A=np.zeros((s, m, K), dtype=complex),
        B=np.zeros((m, K), dtype=complex), y=np.zeros(m, dtype=complex),
        e=np.zeros(0, dtype=complex), sigma=0.0, seed=0,
    )
    st = DemixState(h=np.ones((s, K)), x=np.ones((s, K)))
    with pytest.raises(SizeCapError, match="4sK = 4104 exceeds the 4096 dense-Hessian cap"):
        source_hessians(st, inst)
