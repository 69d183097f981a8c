"""Spectral initialization and the scaled Wirtinger-flow loop.

Per source, initialization takes the leading singular triple of the
back-projection M_i = sum_j y_j b_j a_ij^*, from a dense SVD of the K x K
matrix, phase-gauged and scaled by sqrt(sigma1). The iteration then descends
each pair with step sizes eta/||x_i||^2 and eta/||h_i||^2 evaluated at the
pre-update iterate (simultaneous update).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .objective import DemixState, _gradient_full
from .problem import ProblemInstance

_DIVERGENCE_FACTOR = 1e6


class DegenerateIterateError(RuntimeError):
    """A source collapsed to zero norm, so the scaled step is undefined.

    Raised from run, it carries the records gathered so far in `records`.
    """


class DivergenceError(RuntimeError):
    """Loss went non-finite or blew past 1e6 times its initial value.

    Carries the records gathered up to the failing iteration so callers can
    still write a partial trajectory.
    """

    def __init__(self, iteration: int, loss_value: float, records=None):
        super().__init__(f"loss diverged at iteration {iteration}: {loss_value!r}")
        self.iteration = iteration
        self.loss_value = loss_value
        self.records = list(records) if records is not None else []


@dataclass
class SolverConfig:
    eta: float
    max_iters: int
    stop_tol: float = 0.0  # relative-error stop; 0 disables
    record_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.stop_tol < 0:
            raise ValueError(f"stop_tol must be >= 0, got {self.stop_tol}")


@dataclass
class TrajectoryRecord:
    """Metrics at one recorded iteration.

    Truth-dependent fields are None when the instance has no ground truth.
    alignment holds alpha_i and the aligned squared errors of this iterate,
    from which dist and the incoherence measures are derived.
    alignment_ratios[i] = |alpha_i(t) / alpha_i(t-1) - 1| between this
    iteration and its predecessor; zeros at iteration 0.
    """

    iter: int
    loss: float
    relative_error: float | None = None
    dist: float | None = None
    incoherence_a: float | None = None
    incoherence_b: float | None = None
    alignment_ratios: np.ndarray | None = field(default=None, repr=False)
    alignment: metrics.Alignment | None = field(default=None, repr=False)

    @property
    def max_alignment_ratio(self) -> float | None:
        if self.alignment_ratios is None:
            return None
        return float(np.max(self.alignment_ratios))


def backprojection_matrices(A: np.ndarray, B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M_i = sum_j y_j b_j a_ij^*, stacked as (s, K, K).

    One batched product, M_i = conj((By)^* A_i) with By = diag(y) B, so A is
    never copied to conjugate it.
    """
    By = B * y[:, None]
    return np.conj(np.conj(By).T @ A)


def leading_triple(M: np.ndarray):
    """(sigma1, u, v) with M v = sigma1 u: the leading singular triple of M.

    Taken from the dense SVD, so the triple is accurate to a few ulps of
    sigma1. A zero matrix gives sigma1 = 0 and u = 0.
    """
    U, S, Vh = np.linalg.svd(M)
    if S[0] == 0:
        return 0.0, np.zeros(M.shape[0], dtype=complex), Vh[0].conj()
    return float(S[0]), U[:, 0], Vh[0].conj()


def init_from_matrices(Ms: np.ndarray) -> DemixState:
    """Scaled leading triples of the given (s, K, K) matrices, phase-gauged.

    The left vector's largest-magnitude entry is rotated to the positive
    real axis (first index on ties); the right vector gets the same
    rotation, which leaves the outer product unchanged.
    """
    s, K = Ms.shape[0], Ms.shape[1]
    h = np.empty((s, K), dtype=complex)
    x = np.empty((s, K), dtype=complex)
    for i in range(s):
        sigma, u, v = leading_triple(Ms[i])
        idx = int(np.argmax(np.abs(u)))
        if u[idx] != 0:
            rot = np.exp(-1j * np.angle(u[idx]))
            u = u * rot
            v = v * rot
        h[i] = np.sqrt(sigma) * u
        x[i] = np.sqrt(sigma) * v
    return DemixState(h=h, x=x)


def spectral_init(inst: ProblemInstance) -> DemixState:
    return init_from_matrices(backprojection_matrices(inst.A, inst.B, inst.y))


def step_arrays(state: DemixState, Gh: np.ndarray, Gx: np.ndarray, eta: float) -> DemixState:
    """One scaled descent step using the pre-update norms of the iterate."""
    nh = np.sum(np.abs(state.h) ** 2, axis=1)
    nx = np.sum(np.abs(state.x) ** 2, axis=1)
    if np.any(nh == 0) or np.any(nx == 0):
        raise DegenerateIterateError("a source has zero norm; scaled step undefined")
    return DemixState(
        h=state.h - (eta / nx)[:, None] * Gh,
        x=state.x - (eta / nh)[:, None] * Gx,
    )


def wf_step(state: DemixState, inst: ProblemInstance, eta: float) -> DemixState:
    Gh, Gx, _, _, _ = _gradient_full(state, inst)
    return step_arrays(state, Gh, Gx, eta)


def _record(t, loss_t, state, prev_alpha, inst) -> TrajectoryRecord:
    """Metrics of one iterate; prev_alpha is the predecessor's alpha (None at t = 0)."""
    truth = inst.truth
    if truth is None:
        return TrajectoryRecord(iter=t, loss=loss_t)
    align = metrics.align_state(state, truth)
    if prev_alpha is None:
        ratios = np.zeros(state.h.shape[0])
    else:
        ratios = np.abs(align.alpha / prev_alpha - 1.0)
    inc_a, inc_b = metrics.incoherence_measures(state, truth, inst, align)
    return TrajectoryRecord(
        iter=t,
        loss=loss_t,
        relative_error=metrics.relative_error(state, truth),
        dist=align.dist(truth.d),
        incoherence_a=inc_a,
        incoherence_b=inc_b,
        alignment_ratios=ratios,
        alignment=align,
    )


def run(inst: ProblemInstance, cfg: SolverConfig, on_iterate=None):
    """Algorithm loop: spectral init, then max_iters scaled gradient steps.

    Records at iteration 0, every record_every iterations, and at the final
    iterate. Early stop when relative error falls below stop_tol, checked
    at record points only (needs truth attached). The optional on_iterate
    callback sees (t, state) at every iteration.

    Returns (final_state, records). Raises DivergenceError if the loss goes
    non-finite or exceeds 1e6 times the initial loss, and
    DegenerateIterateError if a source reaches zero norm.
    """
    state = spectral_init(inst)
    truth = inst.truth
    records: list[TrajectoryRecord] = []
    prev_state = None
    loss0 = None
    t = 0
    while True:
        stepping = t < cfg.max_iters
        Gh, Gx, r, _, _ = _gradient_full(state, inst)
        loss_t = float(np.real(np.vdot(r, r)))
        if loss0 is None:
            loss0 = loss_t
        if not np.isfinite(loss_t) or (loss0 > 0 and loss_t > _DIVERGENCE_FACTOR * loss0):
            raise DivergenceError(t, loss_t, records)
        if on_iterate is not None:
            on_iterate(t, state)
        if t % cfg.record_every == 0 or not stepping:
            if t == 0 or truth is None:
                prev_alpha = None
            elif records[-1].iter == t - 1:
                prev_alpha = records[-1].alignment.alpha
            else:
                prev_alpha = metrics.align_state(prev_state, truth).alpha
            rec = _record(t, loss_t, state, prev_alpha, inst)
            records.append(rec)
            if (
                truth is not None
                and cfg.stop_tol > 0
                and rec.relative_error is not None
                and rec.relative_error <= cfg.stop_tol
            ):
                break
        if not stepping:
            break
        prev_state = state
        try:
            state = step_arrays(state, Gh, Gx, cfg.eta)
        except DegenerateIterateError as ex:
            ex.records = records
            raise
        t += 1
    return state, records
