"""Synthetic blind-demixing instances.

Measurement model: y_j = sum_i b_j^* h_i x_i^* a_ij + e_j for j = 0..m-1,
with b_j the j-th row of the first K columns of the unitary m-point DFT,
a_ij i.i.d. CN(0, I_K), and complex Gaussian noise e. An instance holds only
what it cannot derive: B is make_dft_rows(m, K), built on first use and
shared by every instance of that size, so its products are taken by FFT; an
instance file (container version 2) stores A, y, [e] and [h, x] but no B;
the truth's scales d, d0 and kappa are set from the planted pairs.
The iterate and the planted truth are one kind of object, s pairs (h_i, x_i):
a GroundTruth is a DemixState with those scales added.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _rng, metrics

CONVENTION = "dft-neg-v1"

_MAGIC = b"DEMIX01\n"
_VERSION = 2
_FLAG_TRUTH = 1
_FLAG_NOISE = 2
# The container header: magic, version, flags, s, m, K, sigma, seed and the
# 16-byte convention tag, which struct pads with zeros.
_HEADER = struct.Struct("<8sIIIIIdQ16s")
# Real and imaginary parts of a loaded A checked for finiteness at a time.
_SCAN_BLOCK = 32768
# Largest M N K of one real product of the design, taken in row blocks of
# at most this size: OpenBLAS multiplies such a product without packing A,
# and above it a width-4 product took twice as long as a complex gemv.
_DESIGN_BLOCK_MNK = 1_000_000


class DimensionError(ValueError):
    pass


class ShapeError(ValueError):
    pass


class InfiniteSNRError(ValueError):
    """Raised when the SNR is requested for a noiseless measurement vector."""


def _integer(name: str, v, low=None, error=ValueError) -> int:
    """v as a plain int. A bool or a non-integer is refused (a numpy integer
    is not), and so is a value below low; each refusal is error naming name."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise error(f"{name} must be an integer, got {v!r}")
    if low is not None and v < low:
        raise error(f"{name} must be >= {low}, got {v}")
    return int(v)


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes: s sources, m measurements, subspace dimension K.

    Each is stored as a plain int; a numpy integer is converted."""

    s: int
    m: int
    K: int

    def __post_init__(self):
        for name in ("s", "m", "K"):  # sizes feed Philox.advance
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1, DimensionError))
        if self.m < self.K:
            raise DimensionError(f"DFT submatrix needs m >= K, got m={self.m}, K={self.K}")


@dataclass
class DemixState:
    """s source pairs: rows of h and x are the (h_i, x_i), both (s, K) complex."""

    h: np.ndarray  # (s, K)
    x: np.ndarray  # (s, K)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex)
        self.x = np.asarray(self.x, dtype=complex)
        if self.h.shape != self.x.shape or self.h.ndim != 2:
            raise ShapeError(f"h and x must both be (s, K): {self.h.shape} vs {self.x.shape}")

    def copy(self) -> DemixState:
        """The same pairs in new arrays, as an object of the same class."""
        return replace(self, h=self.h.copy(), x=self.x.copy())


@dataclass
class GroundTruth(DemixState):
    """The s planted pairs (h_i, x_i) and the scales derived from them.

    A DemixState, so h and x are (s, K) complex arrays of one shape, checked
    as an iterate's are; they are the only arguments. d[i] = ||h_i||^2 +
    ||x_i||^2, d0 = sqrt(sum_i ||h_i||^2 ||x_i||^2) and
    kappa = max_i ||x_i|| / min_i ||x_i|| are set from them. A source with
    a non-finite entry, ||h_i|| = 0 or ||x_i|| = 0, or whose d_i or share
    of d0 overflows, is a ValueError naming it, and numpy does not warn.
    The incoherence mu also depends on m, so it is not stored here:
    metrics.incoherence_mu(truth, m) gives it. products, the relative
    error's reference terms, is derived on first use, as
    ProblemInstance.B is.
    """

    d: np.ndarray = field(init=False)
    d0: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by source
            hn2 = np.sum(np.abs(self.h) ** 2, axis=1)
            xn2 = np.sum(np.abs(self.x) ** 2, axis=1)
            terms = hn2 * xn2
            self.d = hn2 + xn2
            self.d0 = float(np.sqrt(np.sum(terms)))
        for name, v, n2 in (("h", self.h, hn2), ("x", self.x, xn2)):
            bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
            if bad.size:
                raise ValueError(f"truth source {bad[0]} has a non-finite entry in {name}_{bad[0]}")
            zero = np.flatnonzero(n2 == 0)
            if zero.size:
                raise ValueError(f"truth source {zero[0]} has ||{name}_{zero[0]}|| = 0: "
                                 "d, d0 and kappa need every ||h_i||, ||x_i|| > 0")
        bad = np.flatnonzero(~np.isfinite(self.d))
        if bad.size:
            raise ValueError(f"truth source {bad[0]} is too large: "
                             f"d_{bad[0]} = ||h_{bad[0]}||^2 + ||x_{bad[0]}||^2 overflows")
        if not np.isfinite(self.d0):
            i = int(np.argmax(terms))  # the first overflowing term, else the largest
            raise ValueError(f"truth source {i} is too large: d0 = sqrt(sum_i ||h_i||^2 "
                             f"||x_i||^2) overflows at ||h_{i}||^2 ||x_{i}||^2")
        xn = np.sqrt(xn2)
        self.kappa = float(xn.max() / xn.min())

    @functools.cached_property
    def products(self):
        """(outer, scale): the (s, K, K) products h_i x_i^* and
        scale = sum_i ||h_i|| ||x_i||, the reference terms and denominator of
        metrics.relative_error, formed once per truth. 16 s K^2 bytes."""
        outer = self.h[:, :, None] * np.conj(self.x)[:, None, :]
        outer.flags.writeable = False
        scale = np.sum(np.linalg.norm(self.h, axis=1) * np.linalg.norm(self.x, axis=1))
        return outer, scale


@dataclass
class ProblemInstance:
    """One synthetic instance: design tensors, measurements, optional truth.

    B is not an argument, so passing one is a TypeError from the constructor
    and from dataclasses.replace: it is make_dft_rows(m, K), the one cached
    array of the DFT rows for these dimensions, built on first use. A is held
    C-ordered complex128, so every product reads it as it reads the arrays
    make_instance and load_instance build; an A of another order or dtype
    is copied once, here."""

    dims: Dimensions
    A: np.ndarray  # (s, m, K) design vectors a_ij
    y: np.ndarray  # (m,) measurements
    e: np.ndarray  # noise actually added; length 0 in noiseless mode
    sigma: float
    seed: int
    truth: GroundTruth | None = None

    def __post_init__(self):
        self.seed = int(self.seed) & _rng._MASK64
        self.A = np.ascontiguousarray(self.A, dtype=complex)
        check_instance(self)

    @functools.cached_property
    def B(self) -> np.ndarray:
        """(m, K) DFT rows b_j."""
        return make_dft_rows(self.dims.m, self.dims.K)


def check_instance(inst: ProblemInstance) -> None:
    """Shape checks, finite sigma, y and e, and sigma >= 0, run by the
    constructor and so by dataclasses.replace. B is derived, never passed in;
    A is not scanned, since a scan of the largest array would cost a
    temporary 1/8 its size (load_instance scans a file's A in blocks)."""
    s, m, K = inst.dims.s, inst.dims.m, inst.dims.K
    if inst.A.shape != (s, m, K):
        raise ShapeError(f"A must be (s, m, K)={(s, m, K)}, got {inst.A.shape}")
    if inst.y.shape != (m,):
        raise ShapeError(f"y must be ({m},), got {inst.y.shape}")
    if inst.e.shape not in ((m,), (0,)):
        raise ShapeError(f"e must be ({m},) or empty, got {inst.e.shape}")
    if inst.truth is not None and inst.truth.h.shape != (s, K):
        raise ShapeError(f"truth must be (s, K)={(s, K)}, got {inst.truth.h.shape}")
    for name in ("sigma", "y", "e"):
        if not np.isfinite(getattr(inst, name)).all():
            raise ValueError(f"{name} must be finite")
    if inst.sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {inst.sigma}")


@functools.lru_cache(maxsize=1, typed=True)
def make_dft_rows(m: int, K: int) -> np.ndarray:
    """Rows b_j of the first K columns of the unitary m-point DFT.

    b_j[k] = exp(-2*pi*i*j*k/m) / sqrt(m), zero-based j and k. The rows
    satisfy sum_j b_j b_j^* = I_K and ||b_j||^2 = K/m. The last (m, K) is
    cached, so every instance of one size holds this same read-only array as
    its B, the dense form of row_products and combine_rows. m and K are
    checked as Dimensions' sizes are; the cache is typed, so a bool is never
    taken for its cached integer.
    """
    Dimensions(s=1, m=m, K=K)
    j = np.arange(m)[:, None]
    k = np.arange(K)[None, :]
    B = np.exp(-2j * np.pi * (j * k) / m) / np.sqrt(m)
    B.flags.writeable = False
    return B


def sample_design(dims: Dimensions, rng_seed: int) -> np.ndarray:
    """i.i.d. CN(0, I_K) design vectors a_ij as an (s, m, K) tensor.

    One bulk draw from the design stream in fixed (i, j, k) order; the real
    component of each entry precedes the imaginary one in the stream.
    Working memory is the output and three block buffers: u1 is drawn block
    by block from a second generator that starts where the design stream
    does, and the stream skips past it by Philox.advance. Values and stream
    position equal the unblocked Box-Muller formula's.
    """
    gen = _rng.stream(rng_seed, _rng.TAG_DESIGN)
    return _rng.complex_standard_normal(gen, (dims.s, dims.m, dims.K))


def sample_ground_truth(dims: Dimensions, kappa: float, rng_seed: int) -> GroundTruth:
    """Random source pairs, uniform directions, norms interpolating 1 -> kappa.

    Source 0 has ||h|| = ||x|| = 1; with s >= 2 the norms grow geometrically
    so the last source has norm kappa (all ones when kappa = 1).
    """
    if not (kappa >= 1 and np.isfinite(kappa)):
        raise ValueError(f"kappa must be >= 1 and finite, got {kappa}")
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
    return GroundTruth(h, x)


def forward_parts(H: np.ndarray, X: np.ndarray, A: np.ndarray, B: np.ndarray, D=None):
    """(P, Q, forward, QD) with P[j, i] = b_j^* h_i, Q[i, j] = x_i^* a_ij and
    QD[i, j] = conj(d_i^* a_ij) for the rows d_i of D.

    This is the single arithmetic path shared by synthesis, residual and
    gradient evaluation, so state == truth reproduces y - e bit for bit, and
    it is the only pass over A. P is row_products(H, m).T, m read off B =
    make_dft_rows(m, K). Q and QD are both A_i conj(v_i), taken as
    one real product of A's float view (s, m, 2K) with an (s, 2K, 4) matrix
    whose columns are the float views of x_i, i x_i, d_i and i d_i. D = None
    leaves QD zero: the width stays 4, so Q has the same bits whether or not
    QD is wanted. Rows are taken in blocks of _DESIGN_BLOCK_MNK / (8K), one
    block at the Fig-1a size. A is coerced to C-ordered complex128, which
    copies nothing for the arrays make_instance and load_instance build.
    """
    A = np.ascontiguousarray(A, dtype=complex)
    s, m, K = A.shape
    W = np.zeros((s, K, 2, 4))
    for c, v in ((0, X),) if D is None else ((0, X), (2, D)):
        W[:, :, 0, c] = W[:, :, 1, c + 1] = v.real
        W[:, :, 1, c] = v.imag
        W[:, :, 0, c + 1] = -v.imag
    W = W.reshape(s, 2 * K, 4)
    Af, R = A.view(np.float64), np.empty((s, m, 4))
    rows = max(1, _DESIGN_BLOCK_MNK // (8 * K))
    for j in range(0, m, rows):
        np.matmul(Af[:, j : j + rows], W, out=R[:, j : j + rows])
    R = R.view(complex)
    Q = R[:, :, 0]
    P = row_products(H, B.shape[0]).T
    fwd = np.sum(P.T * Q, axis=0)
    return P, Q, fwd, R[:, :, 1]


def row_products(H: np.ndarray, m: int) -> np.ndarray:
    """b_j^* h, j < m, for each row h of the (..., K) array H, as (..., m): h's
    unitary inverse DFT zero-padded to length m. m < K would crop h: refused."""
    if m < H.shape[-1]:
        raise ValueError(f"row_products needs m >= K, got m={m} and K={H.shape[-1]}")
    return np.fft.ifft(H, n=m, axis=-1, norm="ortho")


def combine_rows(W: np.ndarray, K: int) -> np.ndarray:
    """W @ B, the sums sum_j W[i, j] b_j for B = make_dft_rows(m, K), by FFT:
    the first K entries of each row's unitary DFT, the adjoint of row_products."""
    return np.fft.fft(W, axis=1, norm="ortho")[:, :K]


def synthesize_measurements(truth: GroundTruth, A: np.ndarray, sigma: float, rng_seed: int):
    """Measurements y and the noise e that was actually added.

    e_j has independent real and imaginary parts N(0, sigma^2 d0^2 / (2m)).
    sigma = 0 returns an empty e and y equal to the exact forward map. For
    sigma > 0 the stored e is re-extracted as fl(y - forward) so that the
    identity y = forward + e holds exactly in floating point.
    """
    if not (sigma >= 0 and np.isfinite(sigma)):
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma}")
    _, m, K = A.shape
    if truth.h.shape[1] != K:
        raise ShapeError(f"truth K {truth.h.shape[1]} != A K {K}")
    if truth.h.shape[0] != A.shape[0]:
        raise ShapeError(f"truth s {truth.h.shape[0]} != A s {A.shape[0]}")
    fwd = forward_parts(truth.h, truth.x, A, make_dft_rows(m, K))[2]
    if sigma == 0:
        return fwd, np.zeros(0, dtype=complex)
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
    A = sample_design(dims, seed)
    truth = sample_ground_truth(dims, kappa, seed)
    y, e = synthesize_measurements(truth, A, sigma, seed)
    return ProblemInstance(dims=dims, A=A, y=y, e=e, sigma=sigma, seed=seed, truth=truth)


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
        "mu": None if t is None else metrics.incoherence_mu(t, inst.dims.m),
        "d0": None if t is None else t.d0,
        "convention": CONVENTION,
    }


def _layout(flags: int, s: int, m: int, K: int) -> list:
    """The container's payload as (name, shape) in file order: A, y, then e
    if flags has _FLAG_NOISE, then the truth's h and x if it has _FLAG_TRUTH."""
    return (
        [("A", (s, m, K)), ("y", (m,))]
        + [("e", (m,))] * bool(flags & _FLAG_NOISE)
        + [("h", (s, K)), ("x", (s, K))] * bool(flags & _FLAG_TRUTH)
    )


def save_instance(inst: ProblemInstance, path) -> None:
    """Self-describing binary container plus a JSON metadata sidecar.

    The _HEADER struct (magic, version u32 2, flags u32, s/m/K u32, sigma
    f64, seed u64, 16-byte convention tag), then the arrays of _layout as
    little-endian complex128. B is not stored: it is a function of m and K.
    """
    s, m, K = inst.dims.s, inst.dims.m, inst.dims.K
    t = inst.truth
    flags = (_FLAG_TRUTH if t is not None else 0) | (_FLAG_NOISE if inst.e.size else 0)
    arrays = {"A": inst.A, "y": inst.y, "e": inst.e}
    if t is not None:
        arrays.update(h=t.h, x=t.x)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, flags, s, m, K, inst.sigma,
                              inst.seed & _rng._MASK64, CONVENTION.encode()))
        for name, _ in _layout(flags, s, m, K):
            np.ascontiguousarray(arrays[name], dtype="<c16").tofile(fh)
    with open(Path(path).with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(instance_metadata(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    """Read a container written by save_instance; every refusal names the file.

    The file's size must be the one its header implies. Only version 2 is
    read. A version-1 file, which also stored B, is refused; `demix generate`
    remakes it from its JSON sidecar's s, m, K, sigma, kappa and seed. Each
    array of _layout is read into its own array by one np.fromfile, so loading
    never holds the payload twice. A is scanned for a non-finite entry in
    blocks of _SCAN_BLOCK, and the instance's B is not built until first use.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:8] != _MAGIC:
            raise ValueError(f"not an instance file: {path}")
        if len(head) < _HEADER.size:
            raise ValueError(f"instance file {path} is truncated inside its header")
        _, version, flags, s, m, K, sigma, seed, tag = _HEADER.unpack(head)
        if version != _VERSION:
            raise ValueError(f"instance file {path} has unsupported container version {version}")
        if flags & ~(_FLAG_TRUTH | _FLAG_NOISE):
            raise ValueError(f"instance file {path} has unknown flag bits: {flags:#x}")
        if tag != CONVENTION.encode().ljust(16, b"\0"):
            raise ValueError(f"instance file {path} has unknown convention tag {tag!r}")
        layout = _layout(flags, s, m, K)
        want = _HEADER.size + 16 * sum(math.prod(shape) for _, shape in layout)
        size = os.fstat(fh.fileno()).st_size
        if size != want:
            what = "truncated" if size < want else "followed by trailing bytes"
            raise ValueError(
                f"instance file {path} is {what}: {size} bytes, "
                f"the header (s={s}, m={m}, K={K}, flags={flags}) implies {want}"
            )
        arrays = {
            name: np.fromfile(fh, "<c16", math.prod(shape)).astype(complex, copy=False)
            .reshape(shape)
            for name, shape in layout
        }
    A = arrays["A"].reshape(-1).view(np.float64)  # tested as floats: twice as fast as complex
    for j in range(0, A.size, _SCAN_BLOCK):
        if not np.isfinite(A[j : j + _SCAN_BLOCK]).all():
            raise ValueError(f"instance file {path} has a non-finite entry in A")
    try:
        return ProblemInstance(
            dims=Dimensions(s=s, m=m, K=K),
            A=arrays["A"],
            y=arrays["y"],
            e=arrays.get("e", np.zeros(0, dtype=complex)),
            sigma=sigma,
            seed=seed,
            truth=GroundTruth(arrays["h"], arrays["x"]) if flags & _FLAG_TRUTH else None,
        )
    except ValueError as err:
        raise type(err)(f"instance file {path}: {err}") from err
