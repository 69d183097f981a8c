"""Measurement suite: alignment, distance, relative error, incoherence.

Each source pair (h_i, x_i) carries a (c, 1/conj(c)) scaling ambiguity:
h_i x_i^* is unchanged by h -> h / conj(c), x -> c x. The alignment
parameter resolves it per source before any l2 comparison. Iterates,
planted truths and leave-one-out references are all DemixStates (a
GroundTruth is one), and align_state aligns any of them onto any other;
align_source is the same solve on raw (K,) vectors or (s, K) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Alignment:
    """Per-source alignment of one set of pairs onto a reference set, computed once.

    alpha[i] (nonzero) minimizes g_i(alpha) = ||h_i/conj(alpha) - h'_i||^2 +
    ||alpha x_i - x'_i||^2, with (h'_i, x'_i) the reference's pair i, and
    error[i] = g_i(alpha[i]) is the aligned squared error.
    dist_from_errors and the incoherence measures derive from these.
    """

    alpha: np.ndarray  # (s,) complex
    error: np.ndarray  # (s,) float


def dist_from_errors(error, d) -> float:
    """sqrt(sum_i error_i / d_i), summed over sources left to right."""
    total = 0.0
    for g, d_i in zip(error, d):
        total += g / d_i
    return float(np.sqrt(max(total, 0.0)))


def _rowdot(a, b):
    # a_i^* b_i for each row; each row's sum is formed as it would be alone
    return np.sum(np.conj(a) * b, axis=-1)


def _sqnorm(v):
    return _rowdot(v, v).real


def _phi_terms(h, x, h_ref, x_ref):
    nh = _sqnorm(h)
    nx = _sqnorm(x)
    p = _rowdot(h_ref, h)  # h_ref^* h
    q = _rowdot(x_ref, x)  # x_ref^* x
    return nh, nx, p, q


def _phi(beta, nh, nx, p, q):
    # objective over beta = |alpha| after the optimal phase is substituted in:
    # phi(beta) = nh/beta^2 + nx beta^2 - 2 |p/beta + q beta|
    w = p / beta + q * beta
    return nh / beta**2 + nx * beta**2 - 2.0 * np.abs(w)


def _newton_polish(beta, nh, nx, p, q):
    # Newton steps on phi'(beta) = 0, taken without comparing phi values:
    # phi is flat to ~eps near its minimum, so a test on phi would stop the
    # polish at a sqrt(eps)-accurate point. A row stops where phi is not
    # smooth (|w| = 0) or not convex, or once its step is a few ulps of beta.
    active = np.ones(beta.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            w = p / beta + q * beta
            aw = np.abs(w)
            dw = q - p / beta**2
            d2w = 2.0 * p / beta**3
            re1 = (np.conj(w) * dw).real
            d1 = -2.0 * nh / beta**3 + 2.0 * nx * beta - 2.0 * re1 / aw
            d2 = 6.0 * nh / beta**4 + 2.0 * nx - 2.0 * (
                (np.abs(dw) ** 2 + (np.conj(w) * d2w).real) / aw - re1**2 / aw**3
            )
            step = d1 / d2
            active &= (aw != 0) & (d2 > 0) & np.isfinite(step) & (beta - step > 0)
            beta = np.where(active, beta - step, beta)
            active &= np.abs(step) > 4.0 * np.finfo(float).eps * beta
            if not active.any():
                break
    return beta


def align_source(h, x, h_ref, x_ref):
    """Global minimizer of g(alpha) over alpha in C \\ {0}, row by row.

    The arguments are (K,) vectors, giving a complex alpha, or (s, K) stacks
    of pairs, giving an (s,) array whose row i equals the (K,) call on row i
    bit for bit.

    For fixed beta = |alpha| the optimal phase is closed form,
    exp(i theta) = conj(w)/|w| with w = p/beta + q beta, which leaves
    phi(beta) = nh/beta^2 + nx beta^2 - 2|w| to minimize. With t = beta^2,
    squaring phi'(t) = 0 gives the sextic

        (nx t^2 - nh)^2 (|q|^2 t^2 + 2 Re(p conj(q)) t + |p|^2)
            - t (|q|^2 t^2 - |p|^2)^2 = 0,

    in the variable tau = t / (nh/nx)^(1/2), in which the roots do not move
    under the (h, x) gauge. Its roots are the eigenvalues of one (s, 6, 6)
    stack of companion matrices; a row with q = 0 has a quartic, whose
    roots are taken as reciprocals of the reversed polynomial's. The
    candidates are the real parts of the roots that are positive (rounding
    can split a double root into a complex pair), the kink t = |p|/|q| and
    the balanced point beta = (nh/nx)^(1/4), which is the minimizer when
    p = q = 0. The phi-minimizer among them is polished by Newton steps on
    phi'(beta) = 0 unless |w| = 0 there, where phi is not smooth. The result
    agrees with a 50-digit root of phi' to a few ulps.
    """
    h, x, h_ref, x_ref = (np.asarray(v, dtype=complex) for v in (h, x, h_ref, x_ref))
    shapes = [v.shape for v in (h, x, h_ref, x_ref)]
    if h.ndim not in (1, 2) or shapes[2:] != shapes[:2] or shapes[0][:-1] != shapes[1][:-1]:
        raise ValueError(f"align_source wants (K,) vectors or (s, K) stacks, got shapes {shapes}")
    nh, nx, p, q = _phi_terms(*np.atleast_2d(h, x, h_ref, x_ref))
    if np.any(nh == 0) or np.any(nx == 0):
        raise ValueError("align_source requires nonzero h and x")

    # the sextic in tau = t / t0, divided through by nh^2, highest power first
    t0 = np.sqrt(nh / nx)
    a, b, r = np.abs(q) ** 2 * t0**2, np.abs(p) ** 2, (p * np.conj(q)).real * t0
    c = t0 / nh**2
    coef = np.stack(
        [a, 2.0 * r - c * a**2, b - 2.0 * a, 2.0 * c * a * b - 4.0 * r,
         a - 2.0 * b, 2.0 * r - c * b**2, b],
        axis=-1,
    )
    flip = a == 0
    coef[flip] = coef[flip, ::-1]
    lead = np.where(coef[:, 0] == 0, 1.0, coef[:, 0])  # p = q = 0: no roots needed
    companion = np.zeros((len(coef), 6, 6))
    companion[:, 0, :] = -coef[:, 1:] / lead[:, None]
    companion[:, np.arange(1, 6), np.arange(5)] = 1.0
    roots = np.linalg.eigvals(companion)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots[flip] = 1.0 / roots[flip]
        kink = np.abs(p) / np.abs(q)
    t = np.concatenate([t0[:, None] * roots.real, t0[:, None], kink[:, None]], axis=1)
    ok = (t > 0) & np.isfinite(t)
    betas = np.sqrt(np.where(ok, t, 1.0))
    betas[:, 6] = (nh / nx) ** 0.25  # the balanced point in closed form
    phi = np.where(ok, _phi(betas, nh[:, None], nx[:, None], p[:, None], q[:, None]), np.inf)
    beta = betas[np.arange(len(betas)), np.argmin(phi, axis=1)]
    beta = _newton_polish(beta, nh, nx, p, q)

    w = p / beta + q * beta
    aw = np.abs(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(aw == 0, beta, beta * np.conj(w) / aw)
    return complex(alpha[0]) if h.ndim == 1 else alpha


def align_state(state, ref) -> Alignment:
    """Align every pair of state onto ref's pair of the same index.

    state and ref are any two sets of s pairs of one (s, K) shape: an
    iterate, a GroundTruth, an aligned iterate used as a reference. One
    stacked align_source call gives every alpha_i, and the aligned squared
    error g_i(alpha_i) is formed from it row by row.
    """
    alpha = align_source(state.h, state.x, ref.h, ref.x)
    a = alpha[:, None]
    error = _sqnorm(state.h / np.conj(a) - ref.h) + _sqnorm(a * state.x - ref.x)
    return Alignment(alpha=alpha, error=error)


def dist(state, truth) -> float:
    """sqrt(sum_i min_alpha g_i(alpha) / d_i) with d_i = ||h'_i||^2 + ||x'_i||^2."""
    return dist_from_errors(align_state(state, truth).error, truth.d)


def relative_error(state, truth) -> float:
    """sum_i ||h_i x_i^* - h'_i x'_i^*||_F / sum_i ||h'_i x'_i^*||_F.

    The numerator is the norm of the K x K differences formed entrywise, so
    its absolute error is a few ulps of ||h'_i x'_i^*||_F however close the
    iterate is to the truth. The O(K) expansion
    |h|^2|x|^2 + |u|^2|v|^2 - 2 Re((u^* h)(x^* v)) would cancel, losing every
    relative error below about sqrt(eps). The denominator is ||h'_i|| ||x'_i||.
    """
    if truth.h.shape != state.h.shape:
        raise ValueError(
            f"state and truth shapes differ: {state.h.shape} vs {truth.h.shape}"
        )
    diff = (
        state.h[:, :, None] * np.conj(state.x)[:, None, :]
        - truth.h[:, :, None] * np.conj(truth.x)[:, None, :]
    )
    num = np.sum(np.linalg.norm(diff, axis=(1, 2)))
    den = np.sum(np.linalg.norm(truth.h, axis=1) * np.linalg.norm(truth.x, axis=1))
    return float(num / den)


def incoherence_mu(truth, m) -> float:
    """Smallest mu with |b_j^* h_i| <= mu ||h_i|| / sqrt(m) for all (i, j), each
    b_j^* h_i read off the unitary inverse DFT as problem.forward_parts forms P.
    Needs m >= K: a shorter transform would crop h."""
    K = truth.h.shape[1]
    if m < K:
        raise ValueError(f"incoherence_mu needs m >= K, got m={m} and K={K}")
    P = np.abs(np.fft.ifft(truth.h, n=m, axis=1, norm="ortho"))  # (s, m), |b_j^* h_i|
    norms = np.linalg.norm(truth.h, axis=1)
    return float(np.sqrt(m) * np.max(P / norms[:, None]))


def incoherence_measures(truth, alignments: Alignment, P, QD):
    """Design-coherence trajectory measures (inc_a, inc_b).

    inc_a = max_{i,j} |a_ij^* (alpha_i x_i - x'_i)| / ||x'_i||
          = max_{i,j} |QD_ij| / ||x'_i||
    inc_b = max_{i,j} |b_j^* (h_i / conj(alpha_i))| / ||h'_i||
          = max_{i,j} |P_ji| / (|alpha_i| ||h'_i||)

    P is the state's (m, s) matrix b_j^* h_i and QD the (s, m) product
    A_i conj(alpha_i x_i - x'_i), both from problem.forward_parts, whose
    one pass over A forms QD beside the forward map's Q. QD is formed from
    the difference itself: taking it from Q as conj(alpha_i) Q_ij - Q'_ij
    would subtract nearly equal numbers near the truth.
    """
    if alignments is None:
        raise ValueError("incoherence_measures requires precomputed alignments")
    xn = np.linalg.norm(truth.x, axis=1)
    inc_a = float(np.max(np.abs(QD) / xn[:, None]))

    hn = np.abs(alignments.alpha) * np.linalg.norm(truth.h, axis=1)
    inc_b = float(np.max(np.abs(P) / hn[None, :]))
    return inc_a, inc_b
