"""Measurement suite: alignment, distance, relative error, incoherence.

Each source pair (h_i, x_i) carries a (c, 1/conj(c)) scaling ambiguity:
h_i x_i^* is unchanged by h -> h / conj(c), x -> c x. The alignment
parameter resolves it per source before any l2 comparison. Iterates,
planted truths and leave-one-out references are all DemixStates (a
GroundTruth is one), and align_state aligns any of them onto any other;
align_source is the same solve on raw (K,) vectors or (s, K) stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import problem

_EPS = np.finfo(float).eps
# ones below the diagonal: every companion matrix but its first row
_SHIFT = np.eye(6, k=-1)


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
    u = 1.0 / beta
    w = math.hypot(p.real * u + q.real * beta, p.imag * u + q.imag * beta)
    return nh * (u * u) + nx * (beta * beta) - 2.0 * w


def _newton_polish(beta, nh, nx, p, q):
    # Newton steps on phi'(beta) = 0, taken without comparing phi values:
    # phi is flat to ~eps near its minimum, so a test on phi would stop the
    # polish at a sqrt(eps)-accurate point. It stops where phi is not smooth
    # (|w| = 0) or not convex, or once its step is a few ulps of beta.
    # In real parts: w = p/beta + q beta, w' = q - p/beta^2, w'' = 2p/beta^3,
    # d1 = phi'(beta), d2 = phi''(beta) and |w|'' = (|w'|^2 + Re(conj(w) w'') - g^2)/|w|.
    pr, pi, qr, qi = p.real, p.imag, q.real, q.imag
    for _ in range(8):
        u = 1.0 / beta
        u2 = u * u
        wr, wi = pr * u + qr * beta, pi * u + qi * beta
        aw = math.hypot(wr, wi)
        if aw == 0:
            break
        dwr, dwi = qr - pr * u2, qi - pi * u2
        g = (wr * dwr + wi * dwi) / aw  # Re(conj(w) w') / |w|
        d1 = 2.0 * (nx * beta - nh * (u2 * u) - g)
        d2 = 2.0 * (3.0 * nh * (u2 * u2) + nx
                    - (dwr * dwr + dwi * dwi + 2.0 * (u2 * u) * (wr * pr + wi * pi) - g * g) / aw)
        if not d2 > 0:
            break
        step = d1 / d2
        if not (math.isfinite(step) and beta - step > 0):
            break
        beta -= step
        if not abs(step) > 4.0 * _EPS * beta:
            break
    return beta


def _sextic(nh, nx, p, q):
    """(t0, flip, row) for one source: the sextic in tau = t / t0, divided
    through by nh^2, as the first row of its companion matrix. flip says
    that the coefficients were reversed, as they are when the leading one
    is 0 (q = 0), so that the roots are the reciprocals of tau's."""
    t0 = math.sqrt(nh / nx)
    a = (q.real * q.real + q.imag * q.imag) * (t0 * t0)
    b = p.real * p.real + p.imag * p.imag
    r = (p.real * q.real + p.imag * q.imag) * t0  # Re(p conj(q)) t0
    nh2 = nh * nh
    c = t0 / nh2 if nh2 else math.inf  # nh^2 underflows: the sextic is unusable
    coef = [a, 2.0 * r - c * (a * a), b - 2.0 * a, 2.0 * c * a * b - 4.0 * r,
            a - 2.0 * b, 2.0 * r - c * (b * b), b]
    flip = a == 0
    if flip:
        coef.reverse()
    lead = coef[0] or 1.0  # p = q = 0: no roots needed
    return t0, flip, [-v / lead for v in coef[1:]]


def _minimizer(roots, t0, flip, nh, nx, p, q):
    """alpha for one source from its sextic's roots, as align_source states."""
    if flip:  # a zero root of the reversed polynomial is no root of the sextic
        roots = [1.0 / z for z in roots if z != 0]
    aq = math.hypot(q.real, q.imag)
    ts = [t0 * z.real for z in roots] + [math.hypot(p.real, p.imag) / aq if aq else 0.0]
    betas = [math.sqrt(t) for t in ts if 0.0 < t < math.inf]
    if 0.0 < t0 < math.inf:
        betas.append((nh / nx) ** 0.25)  # the balanced point in closed form
    beta = min(betas, key=lambda b: _phi(b, nh, nx, p, q)) if betas else 1.0
    beta = _newton_polish(beta, nh, nx, p, q)
    wr, wi = p.real / beta + q.real * beta, p.imag / beta + q.imag * beta
    aw = math.hypot(wr, wi)
    return complex(beta * wr / aw, -beta * wi / aw) if aw else complex(beta)


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
    under the (h, x) gauge. Its roots, the certificate of the global
    minimum, are the eigenvalues of one (s, 6, 6) stack of companion
    matrices, taken by one eigvals call; a row with q = 0 has a quartic,
    whose roots are taken as reciprocals of the reversed polynomial's. The
    rest runs one source at a time on Python floats: the coefficients, the
    candidates, the Newton polish and the phase. The candidates are the real
    parts of the roots that are positive (rounding can split a double root
    into a complex pair), the kink t = |p|/|q| and the balanced point
    beta = (nh/nx)^(1/4), which is the minimizer when p = q = 0. The
    phi-minimizer among them is polished by Newton steps on phi'(beta) = 0
    unless |w| = 0 there, where phi is not smooth. The result agrees with a
    50-digit root of phi' to a few ulps. No step of the float code raises
    on an overflow: a pair whose ||h||^2 or ||x||^2 is not finite is
    refused up front, and a sextic whose coefficients overflow by eigvals,
    both with np.linalg.LinAlgError.
    """
    h, x, h_ref, x_ref = (np.asarray(v, dtype=complex) for v in (h, x, h_ref, x_ref))
    shapes = [v.shape for v in (h, x, h_ref, x_ref)]
    if h.ndim not in (1, 2) or shapes[2:] != shapes[:2] or shapes[0][:-1] != shapes[1][:-1]:
        raise ValueError(f"align_source wants (K,) vectors or (s, K) stacks, got shapes {shapes}")
    nh, nx, p, q = (v.tolist() for v in _phi_terms(*np.atleast_2d(h, x, h_ref, x_ref)))
    if 0.0 in nh or 0.0 in nx:
        raise ValueError("align_source requires nonzero h and x")
    if not all(map(math.isfinite, nh + nx)):
        raise np.linalg.LinAlgError("align_source: ||h||^2 or ||x||^2 is not finite")

    terms = list(zip(nh, nx, p, q))
    sextics = [_sextic(*v) for v in terms]
    companion = np.repeat(_SHIFT[None], len(terms), axis=0)
    companion[:, 0] = [row for _, _, row in sextics]
    roots = np.linalg.eigvals(companion).tolist()
    alpha = [_minimizer(z, t0, flip, *v) for z, (t0, flip, _), v in zip(roots, sextics, terms)]
    return alpha[0] if h.ndim == 1 else np.array(alpha, dtype=complex)


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

    truth is a GroundTruth: its products h'_i x'_i^* and the denominator
    are its cached products, formed once per truth, and the iterate's
    products are formed and the truth's subtracted in place. The dense
    form is kept against an O(sK) one from the aligned differences
    dh = h/conj(alpha) - h' and dx = alpha x - x', with xa = alpha x:
    ||dh xa^* + h' dx^*||_F^2 = |dh|^2 |xa|^2 + |h'|^2 |dx|^2
    + 2 Re((h'^* dh)(xa^* dx)). Its three terms cancel near the truth: on
    near-truth states it differed from the dense value by 2.6e-10 relative
    at error 4e-8 and by 1.1e-5 at 4e-12.
    """
    if truth.h.shape != state.h.shape:
        raise ValueError(
            f"state and truth shapes differ: {state.h.shape} vs {truth.h.shape}"
        )
    outer, den = truth.products
    diff = state.h[:, :, None] * np.conj(state.x)[:, None, :]
    diff -= outer
    num = np.sum(np.linalg.norm(diff, axis=(1, 2)))
    return float(num / den)


def incoherence_mu(truth, m) -> float:
    """Smallest mu with |b_j^* h_i| <= mu ||h_i|| / sqrt(m), by problem.row_products."""
    P = np.abs(problem.row_products(truth.h, m))  # (s, m), |b_j^* h_i|
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
    would subtract nearly equal numbers near the truth. Each row's largest
    |QD_ij| and |P_ji| is divided by its positive norm: rounding a quotient
    by a positive number is monotone, so these are the bits of the largest
    elementwise quotient.
    """
    if alignments is None:
        raise ValueError("incoherence_measures requires precomputed alignments")
    xn = np.linalg.norm(truth.x, axis=1)
    inc_a = float(np.max(np.max(np.abs(QD), axis=1) / xn))

    hn = np.abs(alignments.alpha) * np.linalg.norm(truth.h, axis=1)
    inc_b = float(np.max(np.max(np.abs(P.T), axis=1) / hn))
    return inc_a, inc_b
