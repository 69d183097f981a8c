"""Measurement suite: alignment, distance, relative error, incoherence.

Each iterate pair (h_i, x_i) carries a (c, 1/conj(c)) scaling ambiguity:
h_i x_i^* is unchanged by h -> h / conj(c), x -> c x. The alignment
parameter resolves it per source before any l2 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Alignment:
    """Per-source alignment of an iterate onto a reference, computed once.

    alpha[i] (nonzero) minimizes g_i(alpha) = ||h_i/conj(alpha) - h'_i||^2 +
    ||alpha x_i - x'_i||^2, and error[i] = g_i(alpha[i]) is the aligned
    squared error. dist and the incoherence measures derive from these.
    """

    alpha: np.ndarray  # (s,) complex
    error: np.ndarray  # (s,) float

    def dist(self, d) -> float:
        """sqrt(sum_i error_i / d_i), summed over sources left to right."""
        total = 0.0
        for g, d_i in zip(self.error, d):
            total += g / d_i
        return float(np.sqrt(max(total, 0.0)))


def align_objective(alpha: complex, h, x, h_ref, x_ref) -> float:
    """g(alpha) = ||h/conj(alpha) - h_ref||^2 + ||alpha x - x_ref||^2."""
    a = complex(alpha)
    return float(
        np.linalg.norm(h / np.conj(a) - h_ref) ** 2 + np.linalg.norm(a * x - x_ref) ** 2
    )


def _phi_terms(h, x, h_ref, x_ref):
    nh = float(np.real(np.vdot(h, h)))
    nx = float(np.real(np.vdot(x, x)))
    p = complex(np.vdot(h_ref, h))  # h_ref^* h
    q = complex(np.vdot(x_ref, x))  # x_ref^* x
    return nh, nx, p, q


def _phi(beta, nh, nx, p, q):
    # objective over beta = |alpha| after the optimal phase is substituted in:
    # phi(beta) = nh/beta^2 + nx beta^2 - 2 |p/beta + q beta|
    beta = np.asarray(beta, dtype=float)
    w = p / beta + q * beta
    return nh / beta**2 + nx * beta**2 - 2.0 * np.abs(w)


def _newton_polish(beta, nh, nx, p, q) -> float:
    # Newton steps on phi'(beta) = 0, taken without comparing phi values:
    # phi is flat to ~eps near its minimum, so a test on phi would stop the
    # polish at a sqrt(eps)-accurate point. Stops where phi is not smooth
    # (|w| = 0) or not convex, or once a step is a few ulps of beta.
    for _ in range(8):
        w = p / beta + q * beta
        aw = abs(w)
        if aw == 0:
            break
        dw = q - p / beta**2
        d2w = 2.0 * p / beta**3
        re1 = (np.conj(w) * dw).real
        d1 = -2.0 * nh / beta**3 + 2.0 * nx * beta - 2.0 * re1 / aw
        d2 = 6.0 * nh / beta**4 + 2.0 * nx - 2.0 * (
            (abs(dw) ** 2 + (np.conj(w) * d2w).real) / aw - re1**2 / aw**3
        )
        if not d2 > 0:
            break
        step = d1 / d2
        if not (np.isfinite(step) and beta - step > 0):
            break
        beta -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * beta:
            break
    return float(beta)


def align_source(h, x, h_ref, x_ref) -> complex:
    """Global minimizer of g(alpha) over alpha in C \\ {0}.

    For fixed beta = |alpha| the optimal phase is closed form,
    exp(i theta) = conj(w)/|w| with w = p/beta + q beta, which leaves
    phi(beta) = nh/beta^2 + nx beta^2 - 2|w| to minimize. With t = beta^2,
    squaring phi'(t) = 0 gives the sextic

        (nx t^2 - nh)^2 (|q|^2 t^2 + 2 Re(p conj(q)) t + |p|^2)
            - t (|q|^2 t^2 - |p|^2)^2 = 0,

    solved by companion-matrix eigenvalues in the variable t / (nh/nx)^(1/2),
    in which the roots do not move under the (h, x) gauge. The candidates
    are the real parts of the roots that are positive (rounding can split a
    double root into a complex pair), the kink t = |p|/|q| and the balanced
    point t = (nh/nx)^(1/2). The phi-minimizer among them is polished by
    Newton steps on phi'(beta) = 0 unless |w| = 0 there, where phi is not
    smooth. The result agrees with a 50-digit root of phi' to a few ulps.
    """
    if np.linalg.norm(h) == 0 or np.linalg.norm(x) == 0:
        raise ValueError("align_source requires nonzero h and x")
    nh, nx, p, q = _phi_terms(h, x, h_ref, x_ref)

    if p == 0 and q == 0:
        # pure scale balancing, closed form
        beta = (nh / nx) ** 0.25
        return complex(beta)

    # the sextic in tau = t / t0, divided through by nh^2
    t0 = np.sqrt(nh / nx)
    a, b, r = abs(q) ** 2 * t0**2, abs(p) ** 2, (p * np.conj(q)).real * t0
    sextic = np.polysub(
        np.polymul([1.0, 0.0, -2.0, 0.0, 1.0], [a, 2.0 * r, b]),
        (t0 / nh**2) * np.polymul([1.0, 0.0], np.polymul([a, 0.0, -b], [a, 0.0, -b])),
    )
    tau = np.roots(sextic).real
    cands = [t0 * tau[(tau > 0) & np.isfinite(tau)], [t0]]
    if p != 0 and q != 0:
        cands.append([abs(p) / abs(q)])
    betas = np.sqrt(np.concatenate(cands))
    beta = _newton_polish(float(betas[np.argmin(_phi(betas, nh, nx, p, q))]), nh, nx, p, q)

    w = p / beta + q * beta
    if abs(w) == 0:
        return complex(beta)
    return complex(beta * np.conj(w) / abs(w))


def align_source_unit(h, x, h_ref, x_ref) -> complex:
    """Phase-only minimizer: alpha with |alpha| = 1.

    Expanding the constrained objective leaves -2 Re(exp(i theta)(p + q))
    to maximize, so alpha = conj(p + q)/|p + q| (alpha = 1 when p + q = 0).
    """
    if np.linalg.norm(h) == 0 or np.linalg.norm(x) == 0:
        raise ValueError("align_source_unit requires nonzero h and x")
    _, _, p, q = _phi_terms(h, x, h_ref, x_ref)
    w = p + q
    if abs(w) == 0:
        return complex(1.0)
    return complex(np.conj(w) / abs(w))


def aligned_error(h, x, h_ref, x_ref) -> tuple[complex, float]:
    """(alpha, g(alpha)) at the unconstrained optimum."""
    alpha = align_source(h, x, h_ref, x_ref)
    return alpha, align_objective(alpha, h, x, h_ref, x_ref)


def align_state(state, truth) -> Alignment:
    """Align each source of an iterate onto truth's pairs with one align_source
    call, giving both alpha_i and the aligned squared error g_i(alpha_i).
    """
    if truth.h.shape != state.h.shape:
        raise ValueError(
            f"state and truth shapes differ: {state.h.shape} vs {truth.h.shape}"
        )
    s = state.h.shape[0]
    alpha = np.empty(s, dtype=complex)
    error = np.empty(s)
    for i in range(s):
        alpha[i], error[i] = aligned_error(state.h[i], state.x[i], truth.h[i], truth.x[i])
    return Alignment(alpha=alpha, error=error)


def dist(state, truth) -> float:
    """sqrt(sum_i min_alpha g_i(alpha) / d_i) with d_i = ||h'_i||^2 + ||x'_i||^2."""
    return align_state(state, truth).dist(truth.d)


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


def incoherence_mu(truth, B) -> float:
    """Smallest mu with |b_j^* h_i| <= mu ||h_i|| / sqrt(m) for all (i, j)."""
    m = B.shape[0]
    P = np.abs(np.conj(B) @ truth.h.T)  # (m, s)
    norms = np.linalg.norm(truth.h, axis=1)
    return float(np.sqrt(m) * np.max(P / norms[None, :]))


def incoherence_measures(state, truth, inst, alignments: Alignment):
    """Design-coherence trajectory measures (inc_a, inc_b).

    inc_a = max_{i,j} |a_ij^* (alpha_i x_i - x'_i)| / ||x'_i||
    inc_b = max_{i,j} |b_j^* (h_i / conj(alpha_i))| / ||h'_i||
    """
    if alignments is None:
        raise ValueError("incoherence_measures requires precomputed alignments")
    alpha = alignments.alpha
    diff = alpha[:, None] * state.x - truth.x  # (s, K)
    # |a_ij^* d_i| = |(A_i conj(d_i))_j|, so A is never copied to conjugate it
    vals = np.abs(np.matmul(inst.A, np.conj(diff)[:, :, None])[:, :, 0])  # (s, m)
    xn = np.linalg.norm(truth.x, axis=1)
    inc_a = float(np.max(vals / xn[:, None]))

    ht = state.h / np.conj(alpha)[:, None]
    P = np.abs(np.conj(inst.B) @ ht.T)  # (m, s)
    hn = np.linalg.norm(truth.h, axis=1)
    inc_b = float(np.max(P / hn[None, :]))
    return inc_a, inc_b
