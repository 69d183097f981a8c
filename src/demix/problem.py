"""Synthetic blind-demixing instances.

Measurement model: y_j = sum_i b_j^* h_i x_i^* a_ij + e_j for j = 0..m-1,
with b_j the j-th row of the first K columns of the unitary m-point DFT,
a_ij i.i.d. CN(0, I_K), and complex Gaussian noise e.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _rng, metrics

CONVENTION = "dft-neg-v1"

_MAGIC = b"DEMIX01\n"
_VERSION = 1
_FLAG_TRUTH = 1
_FLAG_NOISE = 2
_MASK64 = (1 << 64) - 1
_HEADER_BYTES = 60  # magic, the packed fields of save_instance, convention tag


class DimensionError(ValueError):
    pass


class ShapeError(ValueError):
    pass


class InfiniteSNRError(ValueError):
    """Raised when the SNR is requested for a noiseless measurement vector."""


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes: s sources, m measurements, subspace dimension K."""

    s: int
    m: int
    K: int

    def __post_init__(self):
        if self.s < 1 or self.K < 1 or self.m < 1:
            raise DimensionError(f"s, m, K must be positive: {self}")
        if self.m < self.K:
            raise DimensionError(f"DFT submatrix needs m >= K, got m={self.m}, K={self.K}")


@dataclass
class GroundTruth:
    """The s planted pairs (h_i, x_i) with derived scale parameters.

    h, x are (s, K) arrays whose rows are the source vectors.
    d[i] = ||h_i||^2 + ||x_i||^2, d0 = sqrt(sum_i ||h_i||^2 ||x_i||^2),
    kappa = max_i ||x_i|| / min_i ||x_i||. mu is filled in once the DFT
    rows are known (it depends on B).
    """

    h: np.ndarray
    x: np.ndarray
    d: np.ndarray
    d0: float
    kappa: float
    mu: float | None = None

    @classmethod
    def from_pairs(cls, h: np.ndarray, x: np.ndarray) -> "GroundTruth":
        """The truth with rows h_i, x_i and its derived d, d0 and kappa."""
        hn2 = np.sum(np.abs(h) ** 2, axis=1)
        xn2 = np.sum(np.abs(x) ** 2, axis=1)
        xn = np.sqrt(xn2)
        return cls(
            h=h,
            x=x,
            d=hn2 + xn2,
            d0=float(np.sqrt(np.sum(hn2 * xn2))),
            kappa=float(xn.max() / xn.min()),
        )


@dataclass
class ProblemInstance:
    """One synthetic instance: design tensors, measurements, optional truth."""

    dims: Dimensions
    A: np.ndarray  # (s, m, K) design vectors a_ij
    B: np.ndarray  # (m, K) DFT rows b_j
    y: np.ndarray  # (m,) measurements
    e: np.ndarray  # noise actually added; length 0 in noiseless mode
    sigma: float
    seed: int
    truth: GroundTruth | None = None

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64
        check_instance(self)


def check_instance(inst: ProblemInstance) -> None:
    """Shape validation used by every public entry point."""
    s, m, K = inst.dims.s, inst.dims.m, inst.dims.K
    if inst.A.shape != (s, m, K):
        raise ShapeError(f"A must be (s, m, K)={(s, m, K)}, got {inst.A.shape}")
    if inst.B.shape != (m, K):
        raise ShapeError(f"B must be (m, K)={(m, K)}, got {inst.B.shape}")
    if inst.y.shape != (m,):
        raise ShapeError(f"y must be ({m},), got {inst.y.shape}")
    if inst.e.shape not in ((m,), (0,)):
        raise ShapeError(f"e must be ({m},) or empty, got {inst.e.shape}")
    if inst.truth is not None and inst.truth.h.shape != (s, K):
        raise ShapeError(f"truth must be (s, K)={(s, K)}, got {inst.truth.h.shape}")


def make_dft_rows(m: int, K: int) -> np.ndarray:
    """Rows b_j of the first K columns of the unitary m-point DFT.

    b_j[k] = exp(-2*pi*i*j*k/m) / sqrt(m), zero-based j and k. The rows
    satisfy sum_j b_j b_j^* = I_K and ||b_j||^2 = K/m.
    """
    if m < K:
        raise DimensionError(f"m >= K required, got m={m}, K={K}")
    j = np.arange(m)[:, None]
    k = np.arange(K)[None, :]
    return np.exp(-2j * np.pi * (j * k) / m) / np.sqrt(m)


def sample_design(dims: Dimensions, rng_seed: int) -> np.ndarray:
    """i.i.d. CN(0, I_K) design vectors a_ij as an (s, m, K) tensor.

    One bulk draw from the design stream in fixed (i, j, k) order; the real
    component of each entry precedes the imaginary one in the stream.
    """
    gen = _rng.stream(rng_seed, _rng.TAG_DESIGN)
    return _rng.complex_standard_normal(gen, (dims.s, dims.m, dims.K))


def sample_ground_truth(dims: Dimensions, kappa: float, rng_seed: int) -> GroundTruth:
    """Random source pairs, uniform directions, norms interpolating 1 -> kappa.

    Source 0 has ||h|| = ||x|| = 1; with s >= 2 the norms grow geometrically
    so the last source has norm kappa (all ones when kappa = 1).
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    s, K = dims.s, dims.K
    gen = _rng.stream(rng_seed, _rng.TAG_TRUTH)
    # rows 2i, 2i+1 are the raw draws for h_i, x_i
    raw = _rng.complex_standard_normal(gen, (2 * s, K))
    if s == 1:
        norms = np.ones(1)
    else:
        norms = kappa ** (np.arange(s) / (s - 1))
    h = np.empty((s, K), dtype=complex)
    x = np.empty((s, K), dtype=complex)
    for i in range(s):
        h[i] = norms[i] * raw[2 * i] / np.linalg.norm(raw[2 * i])
        x[i] = norms[i] * raw[2 * i + 1] / np.linalg.norm(raw[2 * i + 1])
    return GroundTruth.from_pairs(h, x)


def forward_parts(H: np.ndarray, X: np.ndarray, A: np.ndarray, B: np.ndarray):
    """(P, Q, forward) with P[j, i] = b_j^* h_i and Q[i, j] = x_i^* a_ij.

    This is the single arithmetic path shared by synthesis, residual and
    gradient evaluation, so state == truth reproduces y - e bit for bit.
    """
    P = np.conj(B @ np.conj(H).T)  # conj(B) is never formed
    Q = np.matmul(A, np.conj(X)[:, :, None])[:, :, 0]
    fwd = np.sum(P.T * Q, axis=0)
    return P, Q, fwd


def synthesize_measurements(
    truth: GroundTruth, A: np.ndarray, B: np.ndarray, sigma: float, rng_seed: int
):
    """Measurements y and the noise e that was actually added.

    e_j has independent real and imaginary parts N(0, sigma^2 d0^2 / (2m)).
    sigma = 0 returns an empty e and y equal to the exact forward map. For
    sigma > 0 the stored e is re-extracted as fl(y - forward) so that the
    identity y = forward + e holds exactly in floating point.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    m = B.shape[0]
    if A.shape[1] != m:
        raise ShapeError(f"A and B disagree on m: {A.shape[1]} vs {m}")
    if truth.h.shape[1] != B.shape[1]:
        raise ShapeError(f"truth K {truth.h.shape[1]} != B K {B.shape[1]}")
    fwd = forward_parts(truth.h, truth.x, A, B)[2]
    if sigma == 0:
        return fwd.copy(), np.zeros(0, dtype=complex)
    gen = _rng.stream(rng_seed, _rng.TAG_NOISE)
    scale = sigma * truth.d0 / np.sqrt(2 * m)
    n_re, n_im = _rng.normal_pairs(gen, m)
    y = fwd + scale * (n_re + 1j * n_im)
    e = y - fwd
    return y, e


def snr_db(y: np.ndarray, e: np.ndarray) -> float:
    """20 log10(||y|| / ||e||); errors out on noiseless input."""
    ny = np.linalg.norm(y)
    ne = np.linalg.norm(e)
    if e.size == 0 or ne == 0:
        raise InfiniteSNRError("noiseless measurements have infinite SNR")
    return float(20.0 * np.log10(ny / ne))


def make_instance(
    dims: Dimensions, kappa: float = 1.0, sigma: float = 0.0, seed: int = 0
) -> ProblemInstance:
    """Full instance from one master seed (design, truth, noise streams split)."""
    B = make_dft_rows(dims.m, dims.K)
    A = sample_design(dims, seed)
    truth = sample_ground_truth(dims, kappa, seed)
    y, e = synthesize_measurements(truth, A, B, sigma, seed)
    truth.mu = metrics.incoherence_mu(truth, B)
    return ProblemInstance(dims=dims, A=A, B=B, y=y, e=e, sigma=sigma, seed=seed, truth=truth)


def instance_metadata(inst: ProblemInstance) -> dict:
    """The JSON sidecar content."""
    t = inst.truth
    return {
        "s": inst.dims.s,
        "m": inst.dims.m,
        "K": inst.dims.K,
        "sigma": inst.sigma,
        "seed": inst.seed,
        "kappa": None if t is None else t.kappa,
        "mu": None if t is None else t.mu,
        "d0": None if t is None else t.d0,
        "convention": CONVENTION,
    }


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<c16").tobytes())


def save_instance(inst: ProblemInstance, path) -> None:
    """Self-describing binary container plus a JSON metadata sidecar.

    Layout: magic, version u32, flags u32, s/m/K u32, sigma f64, seed u64,
    16-byte convention tag, then little-endian complex128 payload in the
    fixed order B, A, y, [e], [truth h, truth x].
    """
    flags = 0
    if inst.truth is not None:
        flags |= _FLAG_TRUTH
    if inst.e.size:
        flags |= _FLAG_NOISE
    header = _MAGIC + struct.pack(
        "<IIIIIdQ",
        _VERSION,
        flags,
        inst.dims.s,
        inst.dims.m,
        inst.dims.K,
        inst.sigma,
        inst.seed & _MASK64,
    )
    header += CONVENTION.encode().ljust(16, b"\0")
    with open(path, "wb") as fh:
        fh.write(header)
        _write_array(fh, inst.B)
        _write_array(fh, inst.A)
        _write_array(fh, inst.y)
        if inst.e.size:
            _write_array(fh, inst.e)
        if inst.truth is not None:
            _write_array(fh, inst.truth.h)
            _write_array(fh, inst.truth.x)
    with open(Path(path).with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(instance_metadata(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    """Read a container written by save_instance; its size must match its header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise ValueError(f"not an instance file: {path}")
    if len(blob) < _HEADER_BYTES:
        raise ValueError(f"instance file {path} is truncated inside its header")
    version, flags, s, m, K, sigma, seed = struct.unpack_from("<IIIIIdQ", blob, 8)
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    if flags & ~(_FLAG_TRUTH | _FLAG_NOISE):
        raise ValueError(f"instance file {path} has unknown flag bits: {flags:#x}")
    tag = blob[44:60]
    if tag != CONVENTION.encode().ljust(16, b"\0"):
        raise ValueError(f"instance file {path} has unknown convention tag {tag!r}")
    shapes = {"B": (m, K), "A": (s, m, K), "y": (m,)}
    if flags & _FLAG_NOISE:
        shapes["e"] = (m,)
    if flags & _FLAG_TRUTH:
        shapes.update(h=(s, K), x=(s, K))
    ends = np.cumsum([np.prod(shape, dtype=int) for shape in shapes.values()])
    want = _HEADER_BYTES + 16 * int(ends[-1])
    if len(blob) != want:
        what = "truncated" if len(blob) < want else "followed by trailing bytes"
        raise ValueError(
            f"instance file {path} is {what}: {len(blob)} bytes, "
            f"the header (s={s}, m={m}, K={K}, flags={flags}) implies {want}"
        )
    payload = np.frombuffer(blob, dtype="<c16", offset=_HEADER_BYTES).astype(np.complex128)
    arrays = {
        name: part.reshape(shape)
        for (name, shape), part in zip(shapes.items(), np.split(payload, ends[:-1]))
    }
    truth = None
    if flags & _FLAG_TRUTH:
        truth = GroundTruth.from_pairs(arrays["h"], arrays["x"])
        truth.mu = metrics.incoherence_mu(truth, arrays["B"])
    return ProblemInstance(
        dims=Dimensions(s=s, m=m, K=K),
        A=arrays["A"],
        B=arrays["B"],
        y=arrays["y"],
        e=arrays.get("e", np.zeros(0, dtype=complex)),
        sigma=sigma,
        seed=seed,
        truth=truth,
    )
