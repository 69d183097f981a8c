"""Loss, Wirtinger gradients and the per-source clean Wirtinger Hessians.

The loss is f(z) = sum_j |sum_i b_j^* h_i x_i^* a_ij - y_j|^2. Gradients
follow the conjugate-coordinate (df/d z-bar) convention; the gradient of f
under the real 4sK-parameterization is exactly twice [Re g; Im g], a factor
calibrated once on the scalar case and frozen in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemInstance, ShapeError, forward_parts


class SizeCapError(ValueError):
    """Dense Hessian assembly refused beyond the small-scale cap."""


def _check_dense_cap(s: int, K: int) -> None:
    if 4 * s * K > 4096:
        raise SizeCapError(f"4sK = {4 * s * K} exceeds the 4096 dense-Hessian cap")


@dataclass
class DemixState:
    """Current iterate: rows of h and x are the s source pairs."""

    h: np.ndarray  # (s, K)
    x: np.ndarray  # (s, K)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex)
        self.x = np.asarray(self.x, dtype=complex)
        if self.h.shape != self.x.shape or self.h.ndim != 2:
            raise ShapeError(f"h and x must both be (s, K): {self.h.shape} vs {self.x.shape}")

    def copy(self) -> "DemixState":
        return DemixState(h=self.h.copy(), x=self.x.copy())


def _check(state: DemixState, inst: ProblemInstance) -> None:
    if state.h.shape != (inst.dims.s, inst.dims.K):
        raise ShapeError(
            f"state is {state.h.shape}, instance wants {(inst.dims.s, inst.dims.K)}"
        )


def residuals(state: DemixState, inst: ProblemInstance) -> np.ndarray:
    """r_j = sum_i b_j^* h_i x_i^* a_ij - y_j."""
    _check(state, inst)
    return forward_parts(state.h, state.x, inst.A, inst.B)[2] - inst.y


def loss(state: DemixState, inst: ProblemInstance) -> float:
    r = residuals(state, inst)
    return float(np.real(np.vdot(r, r)))


def _gradient_full(state: DemixState, inst: ProblemInstance):
    """(Gh, Gx, r, P, Q) with one shared residual pass."""
    _check(state, inst)
    P, Q, fwd = forward_parts(state.h, state.x, inst.A, inst.B)
    r = fwd - inst.y
    # g_h_i = sum_j r_j (a_ij^* x_i) b_j ; g_x_i = sum_j conj(r_j) (b_j^* h_i) a_ij
    W = r[None, :] * np.conj(Q)
    Gh = W @ inst.B
    V = np.conj(r)[None, :] * P.T
    Gx = np.matmul(V[:, None, :], inst.A)[:, 0, :]
    return Gh, Gx, r, P, Q


def gradient_arrays(state: DemixState, inst: ProblemInstance):
    """Wirtinger gradient stacked as two (s, K) arrays."""
    Gh, Gx, _, _, _ = _gradient_full(state, inst)
    return Gh, Gx


def source_hessians(state: DemixState, inst: ProblemInstance) -> np.ndarray:
    """Clean-data Wirtinger Hessian of each source, stacked as (s, 4K, 4K).

    In the coordinate order (dh_i, dx_i, conj dh_i, conj dx_i), source i's
    block is the Hermitian [[C, E], [E^*, conj(C)]] with
    C = [[C1, C2], [C2^*, C3]], E = [[0, E1], [E2, 0]] and
    C1 = sum_j |a_ij^* x_i|^2 b_j b_j^*
    C2 = sum_j c_j b_j a_ij^*   (c = forward map of the state minus the truth's)
    C3 = sum_j |b_j^* h_i|^2 a_ij a_ij^*
    E1 = sum_j (b_j b_j^* h_i)(a_ij a_ij^* x_i)^T   (plain transpose)
    E2 = sum_j (a_ij a_ij^* x_i)(b_j b_j^* h_i)^T
    """
    _check(state, inst)
    s, K = state.h.shape
    _check_dense_cap(s, K)
    if inst.truth is None:
        raise ValueError("the clean Hessian needs the ground truth attached")
    P, Q, fwd = forward_parts(state.h, state.x, inst.A, inst.B)
    c = fwd - forward_parts(inst.truth.h, inst.truth.x, inst.A, inst.B)[2]
    B = inst.B
    Z = np.zeros((K, K), dtype=complex)
    out = np.empty((s, 4 * K, 4 * K), dtype=complex)
    for i in range(s):
        Ai = inst.A[i]
        w1 = np.abs(Q[i]) ** 2
        w3 = np.abs(P[:, i]) ** 2
        coupl = P[:, i] * np.conj(Q[i])  # (b_j^* h_i)(a_ij^* x_i)
        C1 = (B * w1[:, None]).T @ np.conj(B)
        C2 = (B * c[:, None]).T @ np.conj(Ai)
        C3 = (Ai * w3[:, None]).T @ np.conj(Ai)
        E1 = (B * coupl[:, None]).T @ Ai
        E2 = (Ai * coupl[:, None]).T @ B
        C = np.block([[C1, C2], [C2.conj().T, C3]])
        E = np.block([[Z, E1], [E2, Z]])
        out[i] = np.block([[C, E], [E.conj().T, np.conj(C)]])
    return out
