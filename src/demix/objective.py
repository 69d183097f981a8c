"""Loss, Wirtinger gradients and the per-source clean curvature.

The loss is f(z) = sum_j |sum_i b_j^* h_i x_i^* a_ij - y_j|^2. Gradients
follow the conjugate-coordinate (df/d z-bar) convention; the gradient of f
under the real 4sK-parameterization is exactly twice [Re g; Im g], a factor
calibrated once on the scalar case and frozen in the tests. The clean
curvature of a source is a real 4K x 4K matrix built from the residual's
Jacobian. The iterate is problem.DemixState, the pair type the truth
shares; it is imported here so objective.DemixState names it too.
"""

from __future__ import annotations

import numpy as np

from .problem import DemixState, ProblemInstance, ShapeError, combine_rows, forward_parts


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


def _gradient_full(state: DemixState, inst: ProblemInstance, held_out=None, D=None):
    """(Gh, Gx, r, P, QD) with one shared residual pass.

    A held_out index l deletes measurement l: r[l] is set to 0, so the loss
    and both gradients are those of the other m - 1 measurements. D is
    passed on to forward_parts, and QD, its product A_i conj(d_i) from the
    pass over A that forms Q, is returned; it is zero when D is None.
    """
    _check(state, inst)
    P, Q, fwd, QD = forward_parts(state.h, state.x, inst.A, inst.B, D)
    r = fwd - inst.y
    if held_out is not None:
        r[held_out] = 0
    # g_h_i = sum_j r_j (a_ij^* x_i) b_j ; g_x_i = sum_j conj(r_j) (b_j^* h_i) a_ij
    W = r[None, :] * np.conj(Q)
    Gh = combine_rows(W, inst.dims.K)
    V = np.conj(r)[None, :] * P.T
    Gx = np.matmul(V[:, None, :], inst.A)[:, 0, :]
    return Gh, Gx, r, P, QD


def gradient_arrays(state: DemixState, inst: ProblemInstance):
    """Wirtinger gradient stacked as two (s, K) arrays."""
    Gh, Gx, _, _, _ = _gradient_full(state, inst)
    return Gh, Gx


def _source_curvatures(state: DemixState, inst: ProblemInstance, fwd_truth: np.ndarray):
    """Clean curvature of each source in turn, as a real symmetric (4K, 4K) M_i.

    In v = (Re dh_i, Im dh_i, Re dx_i, Im dx_i), v^T M_i v is the
    second-order term of the clean loss along source i alone:
    |J_i w|^2 + 2 Re dh_i^T W_i conj(dx_i), with J_i the residual's (m, 2K)
    Jacobian in w = T2 v = (dh_i, conj dx_i), c the clean residual (the
    state's forward map less fwd_truth, the truth's) and
    W_i = sum_j conj(c_j) conj(b_j) a_ij^T. M_i = T^H H_i T / 2 for the
    Wirtinger Hessian H_i in u = T v = (dh_i, dx_i, conj dh_i, conj dx_i);
    T / sqrt(2) is unitary, so M_i and H_i share their eigenvalues.
    """
    _check(state, inst)
    s, K = state.h.shape
    P, Q, fwd, _ = forward_parts(state.h, state.x, inst.A, inst.B)
    c = fwd - fwd_truth
    I, Z = np.eye(K), np.zeros((K, K))
    T2 = np.block([[I, 1j * I, Z, Z], [Z, Z, I, -1j * I]])
    # J = [Q_i conj(B), P_i A_i] is filled in place; conj(B) times a weight
    # per row is written as the conjugate of B times the weight's conjugate
    J = np.empty((len(c), 2 * K), dtype=complex)
    Jh, Jx = J[:, :K], J[:, K:]
    for i in range(s):
        np.conjugate(np.multiply(np.conj(Q[i])[:, None], inst.B, out=Jh), out=Jh)
        np.multiply(P[:, i][:, None], inst.A[i], out=Jx)
        R = J.view(float)  # Re and Im of J's columns, interleaved
        RR = R.T @ R
        G = RR[::2, ::2] + RR[1::2, 1::2] + 1j * (RR[::2, 1::2] - RR[1::2, ::2])  # J^H J
        M = (T2.conj().T @ G @ T2).real
        np.conjugate(np.multiply(c[:, None], inst.B, out=Jh), out=Jh)  # conj(c) conj(B)
        W = Jh.T @ inst.A[i]
        X = np.block([[W.real, W.imag], [-W.imag, W.real]])
        M[: 2 * K, 2 * K :] += X
        M[2 * K :, : 2 * K] += X.T
        yield M
