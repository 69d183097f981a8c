"""Spectral initialization and the scaled Wirtinger-flow loop.

Initialization takes the leading singular triple of each back-projection
M_i = sum_j y_j b_j a_ij^*, from one dense SVD call on the (s, K, K) stack,
phase-gauged and scaled by sqrt(sigma1). The iteration then descends
each pair with step sizes eta/||x_i||^2 and eta/||h_i||^2 evaluated at the
pre-update iterate (simultaneous update).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .objective import DemixState, _gradient_full
from .problem import ProblemInstance, _integer

_DIVERGENCE_FACTOR = 1e6
_ZERO_NORM = "a source has zero norm; scaled step undefined"


class DegenerateIterateError(RuntimeError):
    """A source collapsed to zero norm, so the scaled step is undefined.

    Raised from run, it carries the records made so far in `records`.
    """


class DivergenceError(RuntimeError):
    """Loss went non-finite or blew past 1e6 times its initial value.

    Raised from run, it carries the records made before the failing
    iteration in `records`, so callers can still write a partial trajectory.
    """

    def __init__(self, iteration: int, loss_value: float):
        super().__init__(f"loss diverged at iteration {iteration}: {loss_value!r}")
        self.iteration = iteration
        self.loss_value = loss_value


@dataclass
class SolverConfig:
    eta: float = 0.1
    max_iters: int = 500
    stop_tol: float = 0.0  # relative-error stop; 0 disables
    record_every: int = 1

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be > 0 and finite, got {self.eta}")
        for name in ("max_iters", "record_every"):
            setattr(self, name, _integer(name, getattr(self, name), 1))
        if not (self.stop_tol >= 0 and np.isfinite(self.stop_tol)):
            raise ValueError(f"stop_tol must be >= 0 and finite, got {self.stop_tol}")


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
    never copied to conjugate it. By is conjugated in place and so is the
    product, so the only (m, K) temporary is By itself.
    """
    By = B * y[:, None]
    np.conj(By, out=By)
    M = By.T @ A
    return np.conj(M, out=M)


def leading_triple(M: np.ndarray):
    """(sigma1, u, v) with M v = sigma1 u: the leading singular triple of M.

    M is a (K, K) matrix or an (s, K, K) stack, taken by one dense SVD call
    either way, so row i of a stacked result holds the bits of the call on
    M[i]. The triple is accurate to a few ulps of sigma1. Where sigma1 = 0
    (a zero matrix), u = 0.
    """
    U, S, Vh = np.linalg.svd(M)
    sigma = S[..., 0]
    u = np.where(sigma[..., None] == 0, 0, U[..., :, 0])
    return sigma, u, Vh[..., 0, :].conj()


def init_from_matrices(Ms: np.ndarray) -> DemixState:
    """Scaled leading triples of the given (s, K, K) matrices, phase-gauged.

    One batched leading_triple call. Each left vector's largest-magnitude
    entry is rotated to the positive real axis (first index on ties); the
    right vector gets the same rotation, which leaves the outer product
    unchanged. A zero matrix gives the zero pair.
    """
    sigma, u, v = leading_triple(Ms)
    lead = np.take_along_axis(u, np.argmax(np.abs(u), axis=1)[:, None], axis=1)
    rot = np.exp(-1j * np.angle(lead))
    scale = np.sqrt(sigma)[:, None]
    return DemixState(h=scale * (u * rot), x=scale * (v * rot))


def spectral_init(inst: ProblemInstance) -> DemixState:
    return init_from_matrices(backprojection_matrices(inst.A, inst.B, inst.y))


def step_arrays(state: DemixState, Gh: np.ndarray, Gx: np.ndarray, eta: float) -> DemixState:
    """One scaled descent step using the pre-update norms of the iterate."""
    nh = np.sum(np.abs(state.h) ** 2, axis=1)
    nx = np.sum(np.abs(state.x) ** 2, axis=1)
    if np.any(nh == 0) or np.any(nx == 0):
        raise DegenerateIterateError(_ZERO_NORM)
    return DemixState(
        h=state.h - (eta / nx)[:, None] * Gh,
        x=state.x - (eta / nh)[:, None] * Gx,
    )


def wf_step(state: DemixState, inst: ProblemInstance, eta: float) -> DemixState:
    Gh, Gx, _, _, _ = _gradient_full(state, inst)
    return step_arrays(state, Gh, Gx, eta)


def _record(t, loss_t, state, truth, align, P, QD, prev_alpha) -> TrajectoryRecord:
    """Metrics of one iterate. align is its alignment onto truth, P its
    forward-map matrix b_j^* h_i, QD its product A_i conj(alpha_i x_i - x'_i)
    from the pass over A that gave the gradient's Q, and prev_alpha the
    predecessor's alpha (None at t = 0).
    """
    if truth is None:
        return TrajectoryRecord(iter=t, loss=loss_t)
    if prev_alpha is None:
        ratios = np.zeros(state.h.shape[0])
    else:
        ratios = np.abs(align.alpha / prev_alpha - 1.0)
    inc_a, inc_b = metrics.incoherence_measures(truth, align, P, QD)
    return TrajectoryRecord(
        iter=t,
        loss=loss_t,
        relative_error=metrics.relative_error(state, truth),
        dist=metrics.dist_from_errors(align.error, truth.d),
        incoherence_a=inc_a,
        incoherence_b=inc_b,
        alignment_ratios=ratios,
        alignment=align,
    )


def _check_held_out(l, m: int) -> None:
    """Refuse a held-out index that is not an integer (ValueError; a bool is
    not one, a numpy integer is) or lies outside [0, m) (IndexError)."""
    if not 0 <= _integer("held-out index", l) < m:
        raise IndexError(f"held-out index {l} outside [0, {m})")


def run(inst: ProblemInstance, cfg: SolverConfig, on_iterate=None, held_out=None):
    """Algorithm loop: spectral init, then max_iters scaled gradient steps.

    Records at iteration 0, every record_every iterations and the final
    iterate; with a truth, stops early at a record whose relative error is
    at most stop_tol (0 disables). on_iterate, if given, sees (t, state) at
    every iteration. held_out, an integer l in [0, m) (else ValueError or
    IndexError), deletes measurement l: y[l] is zeroed in the spectral start
    and the residual's entry l in every gradient, so neither y[l] nor the
    a_il enter the iterates. At a record the iterate is aligned first, so
    that the pass over A that forms the gradient's Q also forms the
    record's incoherence product.

    Returns (final_state, records). Every exception raised after the
    spectral start carries the records made so far in `records`:
    DivergenceError (loss non-finite or above 1e6 times its initial value),
    DegenerateIterateError (a source at zero norm) and np.linalg.LinAlgError
    (an iterate too large to align).
    """
    if held_out is None:
        state = spectral_init(inst)
    else:
        _check_held_out(held_out, inst.dims.m)
        y = inst.y.copy()
        y[held_out] = 0
        state = spectral_init(replace(inst, y=y))
    truth = inst.truth
    records: list[TrajectoryRecord] = []
    prev_state = prev_alpha = None  # prev_alpha: the predecessor's, if it was recorded
    try:
        for t in range(cfg.max_iters + 1):
            recording = t % cfg.record_every == 0 or t == cfg.max_iters
            align = unalignable = None
            if recording and truth is not None:
                try:
                    align = metrics.align_state(state, truth)
                except np.linalg.LinAlgError as ex:
                    unalignable = ex  # too large to align: the loss check reports first
                except ValueError:  # the only one align_source raises here: a zero-norm source
                    unalignable = DegenerateIterateError(_ZERO_NORM)
            D = None if align is None else align.alpha[:, None] * state.x - truth.x
            Gh, Gx, r, P, QD = _gradient_full(state, inst, held_out, D)
            loss_t = float(np.real(np.vdot(r, r)))
            loss0 = loss_t if t == 0 else loss0
            if not np.isfinite(loss_t) or (loss0 > 0 and loss_t > _DIVERGENCE_FACTOR * loss0):
                raise DivergenceError(t, loss_t)
            if on_iterate is not None:
                on_iterate(t, state)
            if recording:
                if unalignable is not None:
                    raise unalignable
                if t > 0 and truth is not None and prev_alpha is None:
                    prev_alpha = metrics.align_state(prev_state, truth).alpha
                rec = _record(t, loss_t, state, truth, align, P, QD, prev_alpha)
                records.append(rec)
                if cfg.stop_tol > 0 and truth is not None and rec.relative_error <= cfg.stop_tol:
                    break
            if t < cfg.max_iters:
                prev_state, prev_alpha = state, None if align is None else align.alpha
                state = step_arrays(state, Gh, Gx, cfg.eta)
    except (DivergenceError, DegenerateIterateError, np.linalg.LinAlgError) as ex:
        ex.records = records
        raise
    return state, records
