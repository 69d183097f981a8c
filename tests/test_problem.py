"""Instance generation: design properties, noise model, serialization."""

import dataclasses
import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demix
from demix import _rng, problem
from demix.objective import DemixState, _gradient_full, residuals
from demix.problem import (
    CONVENTION,
    Dimensions,
    DimensionError,
    GroundTruth,
    InfiniteSNRError,
    ProblemInstance,
    ShapeError,
    check_instance,
    forward_parts,
    instance_metadata,
    load_instance,
    make_dft_rows,
    make_instance,
    sample_design,
    sample_ground_truth,
    save_instance,
    snr_db,
    synthesize_measurements,
)
from demix.solver import SolverConfig, run
from demix.verify import leave_one_out_trajectories

import oracles
from oracles import naive_forward


# ------------------------------------------------------------------ DFT rows


@pytest.mark.parametrize("m,K", [(8, 3), (12, 12), (50, 7), (256, 16), (801, 50)])
def test_dft_rows_partial_isometry(m, K):
    B = make_dft_rows(m, K)
    gram = B.T @ np.conj(B)  # sum_j b_j b_j^*
    assert np.max(np.abs(gram - np.eye(K))) <= 1e-12


@pytest.mark.parametrize("m,K", [(8, 3), (50, 7), (256, 16)])
def test_dft_row_norms(m, K):
    B = make_dft_rows(m, K)
    norms2 = np.sum(np.abs(B) ** 2, axis=1)
    assert np.max(np.abs(norms2 - K / m)) <= 1e-12


def test_dft_sign_convention_pinned():
    # row j, column k carries exp(-2 pi i j k / m) / sqrt(m), zero-based
    m, K = 8, 4
    B = make_dft_rows(m, K)
    assert B[1, 1] == pytest.approx(np.exp(-2j * np.pi / m) / np.sqrt(m), abs=1e-15)
    assert B[3, 2] == pytest.approx(np.exp(-2j * np.pi * 6 / m) / np.sqrt(m), abs=1e-15)
    assert np.allclose(B[0], 1 / np.sqrt(m))


def test_dft_rejects_m_smaller_than_k():
    with pytest.raises(DimensionError):
        make_dft_rows(4, 5)


# ------------------------------------------------------------- DFT-row path


def _complex(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def test_dft_rows_are_read_only_and_take_the_fft_path():
    B = make_dft_rows(7, 3)
    assert not B.flags.writeable
    with pytest.raises(ValueError):
        B[0, 0] = 0
    H = _complex(np.random.default_rng(1), (2, 3))
    P = forward_parts(H, H, np.zeros((2, 7, 3), complex), B)[0]
    assert P.tobytes() == np.fft.ifft(H, n=7, axis=1, norm="ortho").T.tobytes()


def _zeroed_row(B):
    C = B.copy()
    C[3] = 0
    return C


def _made_writeable(B):
    C = B.copy()
    C.flags.writeable = False
    C.flags.writeable = True
    return C


def _read_only_edited(B):
    C = B.copy()
    C[5] = 0
    C[7] *= 2
    C.flags.writeable = False
    return C


@pytest.mark.parametrize(
    "other",
    [np.copy, lambda B: B[:6], lambda B: np.delete(B, 3, axis=0), _zeroed_row, _made_writeable,
     _read_only_edited],
    ids=["copy", "row-slice", "delete", "zeroed-row", "made-writeable", "read-only-edited"],
)
def test_any_other_b_is_rejected(other):
    # the FFT reads only B's shape, so any other B would give wrong products:
    # B is derived from the dimensions and cannot be passed in
    inst = make_instance(Dimensions(s=2, m=8, K=3), kappa=1.5, sigma=0.1, seed=3)
    B = other(make_dft_rows(8, 3))
    m = B.shape[0]
    fields = dict(dims=Dimensions(s=2, m=m, K=3), A=inst.A[:, :m], y=inst.y[:m], e=inst.e[:m])
    with pytest.raises(TypeError, match="'B'"):
        ProblemInstance(**fields, B=B, sigma=inst.sigma, seed=inst.seed, truth=inst.truth)
    with pytest.raises(TypeError, match="'B'"):
        dataclasses.replace(inst, **fields, B=B)
    assert not make_dft_rows(8, 3).flags.writeable
    assert inst.B is make_dft_rows(8, 3)


def test_column_slice_of_dft_rows_is_accepted():
    # each entry is computed alone, so the slice holds make_dft_rows(8, 2)'s bytes
    B = make_dft_rows(8, 3)[:, :2]
    inst = make_instance(Dimensions(s=2, m=8, K=2), kappa=1.5, sigma=0.1, seed=3)
    assert inst.B.tobytes() == B.tobytes()


def test_dft_rows_are_built_once_per_size(tmp_path):
    make_dft_rows.cache_clear()
    inst = make_instance(Dimensions(s=2, m=24, K=3), kappa=1.5, sigma=0.1, seed=3)
    assert dataclasses.replace(inst, y=inst.y.copy()).B is inst.B
    run(inst, SolverConfig(eta=0.1, max_iters=2), held_out=5)  # the held-out start's replace
    leave_one_out_trajectories(inst, [0, 5], eta=0.1, max_iters=2)
    save_instance(inst, tmp_path / "inst.bin")
    back = load_instance(tmp_path / "inst.bin")
    assert make_dft_rows.cache_info().misses == 1
    assert back.B is inst.B is make_dft_rows(24, 3)
    other = make_instance(Dimensions(s=2, m=30, K=4), kappa=1.5, sigma=0.1, seed=3)
    assert make_dft_rows.cache_info().misses == 2
    assert other.B is make_dft_rows(30, 4) and other.B.shape == (30, 4)


@pytest.mark.parametrize("s,m,K", [(1, 1, 1), (2, 7, 3), (3, 97, 97), (2, 128, 6), (10, 2500, 50)])
def test_fft_and_matmul_paths_agree(s, m, K):
    # P, fwd, Gh and Gx by FFT against the dense products with B
    inst = make_instance(Dimensions(s=s, m=m, K=K), kappa=1.5, sigma=0.1, seed=2)
    gen = np.random.default_rng(m)
    state = DemixState(h=_complex(gen, (s, K)), x=_complex(gen, (s, K)))
    P, Q, fwd, _ = forward_parts(state.h, state.x, inst.A, inst.B)
    got = (P, fwd, *_gradient_full(state, inst)[:2])
    B = inst.B
    P_mm = np.conj(B @ np.conj(state.h).T)
    fwd_mm = np.sum(P_mm.T * Q, axis=0)
    r = fwd_mm - inst.y
    W = r[None, :] * np.conj(Q)
    V = np.conj(r)[None, :] * P_mm.T
    want = (P_mm, fwd_mm, W @ B, np.matmul(V[:, None, :], inst.A)[:, 0, :])
    for name, g, w in zip(("P", "fwd", "Gh", "Gx"), got, want):
        assert g.shape == w.shape, name
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), name


@pytest.mark.parametrize("make_B", [make_dft_rows], ids=["fft"])
def test_noise_identity_exact_on_both_paths(make_B):
    # the FFT is the one product path left; an instance's B is always make_dft_rows'
    dims = Dimensions(s=3, m=97, K=5)
    B = make_B(dims.m, dims.K)
    A = sample_design(dims, 6)
    truth = sample_ground_truth(dims, 2.0, 6)
    y, e = synthesize_measurements(truth, A, 0.2, 6)
    fwd = forward_parts(truth.h, truth.x, A, B)[2]
    assert np.array_equal(fwd + e, y) and np.array_equal(y - fwd, e)


# -------------------------------------------------------------- ground truth


def test_truth_norm_pattern_interpolates():
    dims = Dimensions(s=4, m=40, K=6)
    truth = sample_ground_truth(dims, kappa=3.0, rng_seed=5)
    want = 3.0 ** (np.arange(4) / 3.0)
    assert np.allclose(np.linalg.norm(truth.h, axis=1), want, atol=1e-12)
    assert np.allclose(np.linalg.norm(truth.x, axis=1), want, atol=1e-12)
    assert truth.kappa == pytest.approx(3.0, rel=1e-12)


def test_truth_unit_norms_at_kappa_one():
    truth = sample_ground_truth(Dimensions(s=3, m=20, K=5), kappa=1.0, rng_seed=2)
    assert np.allclose(np.linalg.norm(truth.h, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(truth.x, axis=1), 1.0, atol=1e-12)


def test_truth_derived_scales():
    truth = sample_ground_truth(Dimensions(s=3, m=20, K=5), kappa=2.0, rng_seed=7)
    hn2 = np.sum(np.abs(truth.h) ** 2, axis=1)
    xn2 = np.sum(np.abs(truth.x) ** 2, axis=1)
    assert np.allclose(truth.d, hn2 + xn2, rtol=1e-13)
    assert truth.d0 == pytest.approx(np.sqrt(np.sum(hn2 * xn2)), rel=1e-13)


@pytest.mark.parametrize("kappa, what", [(1e100, "d0"), (1e200, "d_1")])
def test_truth_refuses_scales_that_overflow(kappa, what):
    # at kappa 1e100, d0 needs kappa^4; at 1e200, ||h_1||^2 itself overflows:
    # one ValueError naming the source, and numpy does not warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"truth source 1 is too large: {what}"):
            sample_ground_truth(Dimensions(2, 64, 4), kappa, 1)


def test_truth_rejects_kappa_below_one():
    with pytest.raises(ValueError):
        sample_ground_truth(Dimensions(s=2, m=10, K=3), kappa=0.5, rng_seed=0)
    # non-finite kappa is refused too, before any arithmetic could warn
    for kappa in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="kappa must be >= 1"):
            make_instance(Dimensions(s=2, m=10, K=3), kappa=kappa, seed=0)


def test_design_moments():
    # CN(0, I): each complex entry has variance 1, split evenly re/im
    A = sample_design(Dimensions(s=2, m=4000, K=8), rng_seed=3)
    flat = A.ravel()
    assert abs(np.mean(flat.real)) < 0.02
    assert abs(np.mean(flat.imag)) < 0.02
    assert np.var(flat.real) == pytest.approx(0.5, rel=0.05)
    assert np.var(flat.imag) == pytest.approx(0.5, rel=0.05)


@pytest.mark.parametrize("pre", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "shape",
    [
        (1,), (4,), (8,), (3, 7), (50,), (_rng._BLOCK - 1,), (_rng._BLOCK,), (_rng._BLOCK + 1,),
        (3 * _rng._BLOCK + 2,), (10, 2500, 50),
    ],
)
def test_box_muller_matches_unblocked_formula(shape, pre):
    # same bytes as the unblocked formula, and the stream ends in the same
    # place, on fresh streams and on streams with draws already taken; pre
    # and shape between them put the u1 skip at every offset within a
    # Philox four, with and without whole fours to advance past
    n = int(np.prod(shape))
    for draw, oracle in (
        (lambda g: _rng.complex_standard_normal(g, shape),
         lambda g: oracles.complex_standard_normal(g, shape)),
        (lambda g: np.stack(_rng.normal_pairs(g, n)),
         lambda g: np.stack(oracles.box_muller_pairs(g, n))),
    ):
        gen, ref = _rng.stream(9, _rng.TAG_DESIGN), _rng.stream(9, _rng.TAG_DESIGN)
        gen.random(pre)
        ref.random(pre)
        got, want = draw(gen), oracle(ref)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert gen.random(9).tobytes() == ref.random(9).tobytes()


def test_box_muller_rejects_other_bit_generators():
    # the u1 skip counts Philox steps of four outputs
    with pytest.raises(TypeError, match="Philox"):
        _rng.complex_standard_normal(np.random.Generator(np.random.PCG64(1)), (8,))


def test_sample_design_peak_memory():
    # the output and three block buffers: about 1.03x the output's bytes
    dims = Dimensions(s=10, m=1600, K=50)
    tracemalloc.start()
    try:
        A = sample_design(dims, rng_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * A.nbytes, f"peak {peak / A.nbytes:.2f}x the output"


# ---------------------------------------------------------------- consistency


def test_measurement_consistency_noiseless_exact(small_instance):
    inst = small_instance
    truth_state = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    r = residuals(truth_state, inst)
    assert np.all(r == 0)
    fwd = forward_parts(inst.truth.h, inst.truth.x, inst.A, inst.B)[2]
    assert np.array_equal(fwd, inst.y)
    assert inst.e.size == 0


def test_forward_matches_naive(small_instance):
    inst = small_instance
    fwd = forward_parts(inst.truth.h, inst.truth.x, inst.A, inst.B)[2]
    ref = naive_forward(inst.truth.h, inst.truth.x, inst.A, inst.B)
    assert np.allclose(fwd, ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize(
    "s,m,K", [(1, 1, 1), (2, 7, 3), (2, 97, 16), (3, 97, 8), (2, 64, 8), (2, 5100, 50)]
)
def test_design_products_form_both_pairs_in_one_pass(s, m, K):
    # (2, 5100, 50) takes three row blocks
    gen = np.random.default_rng(m * K + s)
    A, H, X, D = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
                  for shape in ((s, m, K), (s, K), (s, K), (s, K)))
    B = make_dft_rows(m, K)
    _, Q, _, QD = forward_parts(H, X, A, B, D)
    for got, v in ((Q, X), (QD, D)):
        want = np.einsum("ijk,ik->ij", A, np.conj(v))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # Q's bits do not depend on the d-pair, and without one QD is zero
    _, Q0, _, QD0 = forward_parts(H, X, A, B)
    assert Q.tobytes() == Q0.tobytes()
    assert QD0.shape == (s, m) and not np.any(QD0)


@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, lambda A: A.astype(np.complex64), lambda A: A.real.copy()],
    ids=["fortran", "complex64", "real"],
)
def test_measurements_of_any_design_layout_are_those_of_its_c_ordered_copy(noisy_instance, layout):
    inst = noisy_instance
    A = layout(inst.A)
    got, want = (synthesize_measurements(inst.truth, a, inst.sigma, inst.seed)
                 for a in (A, np.ascontiguousarray(A, dtype=complex)))
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_noise_identity_exact(noisy_instance):
    inst = noisy_instance
    fwd = forward_parts(inst.truth.h, inst.truth.x, inst.A, inst.B)[2]
    assert np.array_equal(inst.y - fwd, inst.e)
    truth_state = DemixState(h=inst.truth.h.copy(), x=inst.truth.x.copy())
    assert np.array_equal(residuals(truth_state, inst), -inst.e)
    assert np.all(inst.e != 0)


def test_noise_scale():
    # each of e's real/imag parts is N(0, sigma^2 d0^2 / (2m))
    sigma = 0.2
    inst = make_instance(Dimensions(s=1, m=20000, K=2), sigma=sigma, seed=21)
    want = sigma**2 * inst.truth.d0**2 / (2 * inst.dims.m)
    assert np.var(inst.e.real) == pytest.approx(want, rel=0.05)
    assert np.var(inst.e.imag) == pytest.approx(want, rel=0.05)
    assert abs(np.mean(inst.e.real)) < 5 * np.sqrt(want / inst.dims.m)


def test_seed_determinism_bit_identical():
    dims = Dimensions(s=2, m=30, K=4)
    a = make_instance(dims, kappa=2.0, sigma=0.1, seed=42)
    b = make_instance(dims, kappa=2.0, sigma=0.1, seed=42)
    for name in ("A", "B", "y", "e"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.truth.h.tobytes() == b.truth.h.tobytes()
    c = make_instance(dims, kappa=2.0, sigma=0.1, seed=43)
    assert a.y.tobytes() != c.y.tobytes()


def test_mu_is_the_tight_constant(small_instance):
    inst = small_instance
    m = inst.dims.m
    worst = 0.0
    for i in range(inst.dims.s):
        for j in range(m):
            worst = max(
                worst,
                abs(np.vdot(inst.B[j], inst.truth.h[i]))
                / np.linalg.norm(inst.truth.h[i]),
            )
    mu = demix.incoherence_mu(inst.truth, m)
    assert mu == pytest.approx(np.sqrt(m) * worst, rel=1e-12)
    assert 1.0 <= mu <= np.sqrt(inst.dims.K) + 1e-12


def test_snr_db_formula(noisy_instance):
    inst = noisy_instance
    want = 20 * np.log10(np.linalg.norm(inst.y) / np.linalg.norm(inst.e))
    assert snr_db(inst.y, inst.e) == pytest.approx(want, rel=1e-12)


def test_snr_db_rejects_noiseless():
    with pytest.raises(InfiniteSNRError):
        snr_db(np.ones(3, dtype=complex), np.zeros(0, dtype=complex))


# ----------------------------------------------------------------- validation


def test_dimensions_validation():
    with pytest.raises(DimensionError):
        Dimensions(s=0, m=4, K=2)
    with pytest.raises(DimensionError):
        Dimensions(s=1, m=3, K=4)  # m < K
    # numpy integers are stored as plain ints, so the sizes reach the
    # generator's stream arithmetic as Python ints
    dims = Dimensions(s=np.int64(2), m=np.int32(24), K=np.uint8(4))
    assert [type(v) for v in (dims.s, dims.m, dims.K)] == [int] * 3
    assert dims == Dimensions(s=2, m=24, K=4)
    got = make_instance(dims, sigma=0.1, seed=1)
    want = make_instance(Dimensions(s=2, m=24, K=4), sigma=0.1, seed=1)
    assert got.A.tobytes() == want.A.tobytes() and got.y.tobytes() == want.y.tobytes()


def test_check_instance_shape_errors(small_instance):
    inst = small_instance
    bad = ProblemInstance.__new__(ProblemInstance)
    for name in ("dims", "A", "y", "e", "sigma", "seed", "truth"):
        object.__setattr__(bad, name, getattr(inst, name))
    bad.A = inst.A[:, :-1, :]
    with pytest.raises(ShapeError):
        check_instance(bad)
    bad.A = inst.A
    bad.y = inst.y[:-1]
    with pytest.raises(ShapeError):
        check_instance(bad)


def _with_entry(arr, at, value):
    out = arr.copy()
    out[at] = value
    return out


def _version_one(tmp_path, inst):
    # a version-1 file also stored B; only the version word matters here
    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = (1).to_bytes(4, "little")  # the version word follows the magic
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda inst, tmp: dataclasses.replace(inst, B=make_dft_rows(24, 4)), TypeError,
         "unexpected keyword argument 'B'"),
        (lambda inst, tmp: dataclasses.replace(inst, e=np.zeros(3, dtype=complex)), ShapeError,
         "e must be"),
        (lambda inst, tmp: dataclasses.replace(
            inst, truth=sample_ground_truth(Dimensions(s=2, m=24, K=3), 1.0, 1)), ShapeError,
         "truth must be"),
        (lambda inst, tmp: dataclasses.replace(inst, sigma=np.nan), ValueError,
         "sigma must be finite"),
        (lambda inst, tmp: dataclasses.replace(inst, sigma=-1.0), ValueError,
         "sigma must be >= 0, got -1.0"),
        (lambda inst, tmp: dataclasses.replace(inst, y=_with_entry(inst.y, 3, np.nan)), ValueError,
         "y must be finite"),
        (lambda inst, tmp: dataclasses.replace(inst, e=_with_entry(inst.y, 0, np.inf)), ValueError,
         "e must be finite"),
        (lambda inst, tmp: GroundTruth(_with_entry(inst.truth.h, (1, 2), np.nan), inst.truth.x),
         ValueError, "truth source 1 has a non-finite entry in h_1"),
        (lambda inst, tmp: GroundTruth(inst.truth.h, _with_entry(inst.truth.x, (0, 0), -np.inf)),
         ValueError, "truth source 0 has a non-finite entry in x_0"),
        (lambda inst, tmp: Dimensions(s=2, m=24.0, K=4), DimensionError,
         "m must be an integer, got 24.0"),
        (lambda inst, tmp: Dimensions(s=2.5, m=24, K=4), DimensionError,
         "s must be an integer, got 2.5"),
        (lambda inst, tmp: Dimensions(s=2, m=24, K=True), DimensionError,
         "K must be an integer, got True"),
        (lambda inst, tmp: make_dft_rows(2.5, 1), DimensionError,
         "m must be an integer, got 2.5"),
        # the cached (1, 1) must not answer for (True, 1)
        (lambda inst, tmp: [make_dft_rows(1, 1), make_dft_rows(True, 1)], DimensionError,
         "m must be an integer, got True"),
        (lambda inst, tmp: synthesize_measurements(inst.truth, inst.A, -0.1, 1),
         ValueError, "sigma must be >= 0"),
        (lambda inst, tmp: synthesize_measurements(inst.truth, inst.A[:, :, :3], 0.0, 1),
         ShapeError, "truth K 4 != A K 3"),
        (lambda inst, tmp: synthesize_measurements(GroundTruth(inst.truth.h[:1], inst.truth.x[:1]),
                                                   inst.A, 0.0, 1),
         ShapeError, "truth s 1 != A s 2"),
        (lambda inst, tmp: synthesize_measurements(inst.truth, inst.A, np.nan, 1),
         ValueError, "sigma must be >= 0"),
        (lambda inst, tmp: synthesize_measurements(inst.truth, inst.A, np.inf, 1),
         ValueError, "sigma must be >= 0"),
        (lambda inst, tmp: load_instance(_version_one(tmp, inst)), ValueError,
         "unsupported container version 1"),
        (lambda inst, tmp: _rng.stream(1, 256), ValueError, "stream tag out of range: 256"),
        (lambda inst, tmp: _rng.stream(1, -1), ValueError, "stream tag out of range: -1"),
    ],
    ids=["check_instance_B", "check_instance_e", "check_instance_truth", "check_instance_sigma_nan",
         "check_instance_sigma_negative", "check_instance_y_nan", "check_instance_e_inf",
         "truth_h_nan", "truth_x_inf", "dims_float", "dims_fraction", "dims_bool",
         "dft_rows_fraction", "dft_rows_bool", "synthesize_sigma", "synthesize_K", "synthesize_s",
         "synthesize_sigma_nan", "synthesize_sigma_inf", "load_version", "stream_tag_256",
         "stream_tag_neg"],
)
def test_guards_reject_bad_input(small_instance, tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(small_instance, tmp_path)


# -------------------------------------------------------------- serialization


def _assert_instances_equal(a, b):
    assert a.dims == b.dims
    assert a.sigma == b.sigma
    assert a.seed == b.seed
    for name in ("A", "B", "y", "e"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    if a.truth is None:
        assert b.truth is None
    else:
        assert a.truth.h.tobytes() == b.truth.h.tobytes()
        assert a.truth.x.tobytes() == b.truth.x.tobytes()
        assert a.truth.d0 == b.truth.d0
        assert a.truth.kappa == b.truth.kappa
        assert instance_metadata(a)["mu"] == instance_metadata(b)["mu"]


def test_save_load_round_trip_bit_exact(tmp_path, noisy_instance):
    path = tmp_path / "inst.bin"
    save_instance(noisy_instance, path)
    back = load_instance(path)
    _assert_instances_equal(noisy_instance, back)
    assert (tmp_path / "inst.json").exists()


def test_sidecar_stays_in_a_dotted_directory(tmp_path, noisy_instance):
    outdir = tmp_path / "run.v2"
    outdir.mkdir()
    save_instance(noisy_instance, outdir / "inst")
    assert sorted(p.name for p in outdir.iterdir()) == ["inst", "inst.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2"]


def test_save_load_without_truth(tmp_path, small_instance):
    inst = small_instance
    bare = ProblemInstance(
        dims=inst.dims, A=inst.A, y=inst.y, e=inst.e, sigma=inst.sigma, seed=inst.seed, truth=None,
    )
    path = tmp_path / "bare.bin"
    save_instance(bare, path)
    back = load_instance(path)
    _assert_instances_equal(bare, back)


def test_load_instance_peak_memory(tmp_path):
    # the file holds no B, and a load builds none from the cold cache: each
    # array is read into its own array, and A is scanned in small blocks
    inst = make_instance(Dimensions(s=10, m=1600, K=50), kappa=1.0, sigma=0.1, seed=4)
    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    entries = sum(a.size for a in (inst.A, inst.y, inst.e, inst.truth.h, inst.truth.x))
    del inst
    make_dft_rows.cache_clear()
    size = path.stat().st_size
    assert size == 60 + 16 * entries
    tracemalloc.start()
    try:
        back = load_instance(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * size, f"peak {peak / size:.4f}x the file"
    assert back.A.flags.aligned and back.A.flags.writeable


def test_saving_a_loaded_instance_never_builds_b(tmp_path):
    # the file and its sidecar's mu need only m and K, not the DFT rows
    inst = make_instance(Dimensions(s=2, m=64, K=4), kappa=1.5, sigma=0.1, seed=8)
    save_instance(inst, tmp_path / "inst.bin")
    back = load_instance(tmp_path / "inst.bin")
    save_instance(back, tmp_path / "again.bin")
    assert "B" not in vars(back)
    for suffix in (".bin", ".json"):
        assert (tmp_path / f"again{suffix}").read_bytes() == (tmp_path / f"inst{suffix}").read_bytes()


def test_loaded_instance_runs_as_the_generated_one(tmp_path):
    inst = make_instance(Dimensions(s=2, m=64, K=4), kappa=1.5, sigma=0.1, seed=8)
    save_instance(inst, tmp_path / "inst.bin")
    back = load_instance(tmp_path / "inst.bin")
    assert back.B is inst.B and not back.B.flags.writeable
    cfg = SolverConfig(eta=0.2, max_iters=30, record_every=1)
    (st_a, rec_a), (st_b, rec_b) = run(inst, cfg), run(back, cfg)
    assert st_a.h.tobytes() == st_b.h.tobytes() and st_a.x.tobytes() == st_b.x.tobytes()
    fields = ("loss", "relative_error", "dist", "incoherence_a", "incoherence_b")
    assert [[getattr(r, f) for f in fields] for r in rec_a] == [
        [getattr(r, f) for f in fields] for r in rec_b
    ]


def test_load_rejects_a_zero_truth_source(tmp_path, noisy_instance):
    # the last truth row x is the file's last 16 K bytes; zeroed, kappa would be inf
    path = tmp_path / "inst.bin"
    save_instance(noisy_instance, path)
    s, K = noisy_instance.dims.s, noisy_instance.dims.K
    path.write_bytes(path.read_bytes()[: -16 * K] + bytes(16 * K))
    with pytest.raises(ValueError, match=re.escape(str(path))
                       + f".*truth source {s - 1} has \\|\\|x_{s - 1}\\|\\| = 0"):
        load_instance(path)
    with pytest.raises(ValueError, match="truth source 0 has \\|\\|h_0\\|\\| = 0"):
        demix.GroundTruth(np.zeros((2, K), complex), noisy_instance.truth.x)


def test_truth_is_a_checked_demix_state(small_instance):
    # a truth gets the iterate's shape check, so no instance can hold a bad one
    truth, K = small_instance.truth, small_instance.dims.K
    assert issubclass(GroundTruth, DemixState)
    with pytest.raises(ShapeError, match="h and x must both be"):
        dataclasses.replace(small_instance, truth=GroundTruth(truth.h, truth.x[:, : K - 1]))
    # a truth copies as a truth, in new arrays, with its scales' bytes
    back = truth.copy()
    assert type(back) is GroundTruth
    assert not np.shares_memory(back.h, truth.h) and not np.shares_memory(back.x, truth.x)
    for name in ("h", "x", "d", "d0", "kappa"):
        assert np.asarray(getattr(back, name)).tobytes() == np.asarray(getattr(truth, name)).tobytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a container at all")
    with pytest.raises(ValueError):
        load_instance(path)


def test_load_rejects_truncated_file(tmp_path, noisy_instance):
    path = tmp_path / "inst.bin"
    save_instance(noisy_instance, path)
    blob = path.read_bytes()
    for cut in (blob[:-16], blob[:40]):  # payload short, then header short
        path.write_bytes(cut)
        with pytest.raises(ValueError, match="truncated"):
            load_instance(path)


def test_load_rejects_corrupt_convention_tag(tmp_path, noisy_instance):
    path = tmp_path / "inst.bin"
    save_instance(noisy_instance, path)
    blob = bytearray(path.read_bytes())
    blob[44] = 0xFF  # first byte of the convention tag
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*convention"):
        load_instance(path)


def test_load_rejects_trailing_bytes(tmp_path, noisy_instance):
    path = tmp_path / "inst.bin"
    save_instance(noisy_instance, path)
    path.write_bytes(path.read_bytes() + bytes(16))
    with pytest.raises(ValueError, match="trailing bytes"):
        load_instance(path)


def test_load_rejects_unknown_flag_bits(tmp_path, noisy_instance):
    path = tmp_path / "inst.bin"
    save_instance(noisy_instance, path)
    blob = bytearray(path.read_bytes())
    blob[12] |= 8  # flags word starts after the magic and the version
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unknown flag bits"):
        load_instance(path)


def _file_with(tmp_path, inst, at, data):
    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    blob = bytearray(path.read_bytes())
    blob[at : at + len(data)] = data
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize(
    "at, data, message",
    [
        (8, (1).to_bytes(4, "little"), "unsupported container version 1"),
        (28, struct.pack("<d", -1.0), "sigma must be >= 0"),
        (60, struct.pack("<d", np.nan), "non-finite entry in A"),  # Re A[0, 0, 0]
        (60 + 16 * (2 * 64 * 8) - 8, struct.pack("<d", np.inf), "non-finite entry in A"),
        (60 + 16 * (2 * 64 * 8) + 16 * 3, struct.pack("<d", np.nan), "y must be finite"),
    ],
    ids=["version", "sigma_negative", "A_nan", "A_inf", "y_nan"],
)
def test_every_load_refusal_names_the_file(tmp_path, monkeypatch, at, data, message):
    # a noisy s=2, m=64, K=8 file: A, y, e and the truth follow the 60-byte header
    # (test_load_rejects_a_zero_truth_source covers a refusal of the truth);
    # A's 2048 real numbers are scanned in 21 blocks, the last one partial
    monkeypatch.setattr(problem, "_SCAN_BLOCK", 100)
    inst = make_instance(Dimensions(2, 64, 8), sigma=0.1, seed=1)
    path = _file_with(tmp_path, inst, at, data)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
        load_instance(path)


def _bare_header(s, m, K):
    # version 2, no flags, sigma 0, seed 0
    return b"DEMIX01\n" + struct.pack("<IIIIIdQ16s", 2, 0, s, m, K, 0.0, 0, b"dft-neg-v1")


def test_load_names_the_file_in_a_dimension_error(tmp_path):
    # a header with m < K and exactly the payload it implies: A and y
    path = tmp_path / "inst.bin"
    path.write_bytes(_bare_header(1, 1, 2) + bytes(16 * (2 + 1)))
    with pytest.raises(DimensionError, match=re.escape(str(path)) + ".*needs m >= K"):
        load_instance(path)


def test_load_refuses_a_header_whose_payload_size_wraps_int64(tmp_path):
    # s m K = 2^64 wraps to 0 in int64, so this file is the size of y alone
    path = tmp_path / "wrap.bin"
    path.write_bytes(_bare_header(2**30, 2**17, 2**17) + bytes(16 * 2**17))
    assert path.stat().st_size == 2_097_212
    with pytest.raises(ValueError, match=re.escape(str(path)) + " is truncated: 2097212 bytes"):
        load_instance(path)


def test_the_container_format_literally(tmp_path):
    # the format as bytes, not as the code states it: a 60-byte header, then
    # A, y, e, h and x as little-endian complex128, in that order
    inst = make_instance(Dimensions(1, 2, 1), sigma=0.5, seed=7)
    path = tmp_path / "tiny.bin"
    save_instance(inst, path)
    blob = path.read_bytes()
    assert blob[:60] == (
        b"DEMIX01\n"
        b"\x02\0\0\0"  # version 2
        b"\x03\0\0\0"  # flags: truth | noise
        b"\x01\0\0\0" b"\x02\0\0\0" b"\x01\0\0\0"  # s, m, K
        b"\0\0\0\0\0\0\xe0\x3f"  # sigma = 0.5
        b"\x07\0\0\0\0\0\0\0"  # seed
        b"dft-neg-v1\0\0\0\0\0\0"  # convention tag
    )
    parts = (inst.A, inst.y, inst.e, inst.truth.h, inst.truth.x)
    assert blob[60:] == b"".join(a.astype("<c16").tobytes() for a in parts)


def test_save_and_load_share_one_payload_layout(tmp_path, noisy_instance, monkeypatch):
    # with the order reversed, the file changes and the round trip does not
    layout = problem._layout
    monkeypatch.setattr(problem, "_layout", lambda *args: layout(*args)[::-1])
    path = tmp_path / "inst.bin"
    save_instance(noisy_instance, path)
    assert path.read_bytes()[60:].startswith(noisy_instance.truth.x.tobytes())
    _assert_instances_equal(noisy_instance, load_instance(path))


def test_metadata_schema(tmp_path, noisy_instance):
    meta = instance_metadata(noisy_instance)
    assert set(meta) == {"s", "m", "K", "sigma", "seed", "kappa", "mu", "d0", "convention"}
    assert meta["convention"] == CONVENTION
    assert meta["s"] == noisy_instance.dims.s
    assert meta["sigma"] == noisy_instance.sigma
    save_instance(noisy_instance, tmp_path / "x.bin")
    sidecar = json.loads((tmp_path / "x.json").read_text())
    assert sidecar == meta


@settings(max_examples=20, deadline=None)
@given(
    s=st.integers(1, 3),
    K=st.integers(1, 5),
    extra=st.integers(0, 12),
    sigma=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**63 - 1),
)
def test_round_trip_property(tmp_path_factory, s, K, extra, sigma, seed):
    dims = Dimensions(s=s, m=K + extra, K=K)
    inst = make_instance(dims, kappa=1.0, sigma=sigma, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "inst.bin"
    save_instance(inst, path)
    _assert_instances_equal(inst, load_instance(path))
