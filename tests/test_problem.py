"""Instance generation: design properties, noise model, serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demix
from demix.objective import DemixState, residuals
from demix.problem import (
    CONVENTION,
    Dimensions,
    DimensionError,
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
)

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


def test_truth_rejects_kappa_below_one():
    with pytest.raises(ValueError):
        sample_ground_truth(Dimensions(s=2, m=10, K=3), kappa=0.5, rng_seed=0)


def test_design_moments():
    # CN(0, I): each complex entry has variance 1, split evenly re/im
    A = sample_design(Dimensions(s=2, m=4000, K=8), rng_seed=3)
    flat = A.ravel()
    assert abs(np.mean(flat.real)) < 0.02
    assert abs(np.mean(flat.imag)) < 0.02
    assert np.var(flat.real) == pytest.approx(0.5, rel=0.05)
    assert np.var(flat.imag) == pytest.approx(0.5, rel=0.05)


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
    assert inst.truth.mu == pytest.approx(np.sqrt(m) * worst, rel=1e-12)
    assert 1.0 <= inst.truth.mu <= np.sqrt(inst.dims.K) + 1e-12


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


def test_check_instance_shape_errors(small_instance):
    inst = small_instance
    bad = ProblemInstance.__new__(ProblemInstance)
    for name in ("dims", "A", "B", "y", "e", "sigma", "seed", "truth"):
        object.__setattr__(bad, name, getattr(inst, name))
    bad.A = inst.A[:, :-1, :]
    with pytest.raises(ShapeError):
        check_instance(bad)
    bad.A = inst.A
    bad.y = inst.y[:-1]
    with pytest.raises(ShapeError):
        check_instance(bad)


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
        assert a.truth.mu == b.truth.mu


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
        dims=inst.dims, A=inst.A, B=inst.B, y=inst.y, e=inst.e,
        sigma=inst.sigma, seed=inst.seed, truth=None,
    )
    path = tmp_path / "bare.bin"
    save_instance(bare, path)
    back = load_instance(path)
    _assert_instances_equal(bare, back)


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
