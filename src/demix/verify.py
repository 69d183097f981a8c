"""Desk-scale empirical checks of the geometry the solver relies on.

Covers: the exact strong-convexity minimum off the gauge, and the smoothness,
of the clean curvature at points sampled near the truth, per-trial spectral
deviations of the back-projection matrices from a truth drawn at the
configured kappa, and leave-one-out trajectory proximity, which runs `run`
once per held-out index l with measurement l masked out (run's held_out).
CHECKS is the table of verify_* experiments that `demix verify` runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _rng, metrics, problem
# _gradient_full is not called here; perfbench asserts that tracing rewraps it here too
from .objective import DemixState, _gradient_full, _source_curvatures
from .problem import Dimensions, ProblemInstance, _integer, forward_parts, make_dft_rows
from .problem import make_instance, sample_design, sample_ground_truth, synthesize_measurements
from .solver import SolverConfig, _check_held_out, backprojection_matrices, run

# Redrawn candidates one check_rsc call may spend over all of its draws.
_REJECTION_BUDGET = 10_000
# Constants of check_rsc's incoherence side conditions.
_C_A = 6.0
_C_B = 1.0

# Surfaced in every report: the synthetic noise is Gaussian, while parts of
# the supporting analysis assume a deterministic per-entry noise bound of
# order sigma^2/m. The checks here run under the Gaussian model.
NOISE_MODEL_NOTE = (
    "noise model: e_j is complex Gaussian with per-part variance "
    "sigma^2 d0^2/(2m); checks run under this model rather than a "
    "deterministic |e_j| <= sigma^2/m envelope"
)


@dataclass
class RscReport:
    """Strong-convexity/smoothness summary over points sampled near the truth.

    min_quadratic_ratio is the minimum over points of the exact minimum of
    2 sum_i (d_i v_i)^T M_i v_i / sum_i ||v_i||^2 over every direction v
    orthogonal to the gauge, with M_i the real clean curvature of source i at
    the point; smoothness_max is the largest |eigenvalue| of any sampled M_i.
    M_i grows with d_i, so a check passes only if every M_i's largest
    |eigenvalue| is at most (2 + s) d_i / 2, which is 2 + s at kappa = 1; it
    also needs min_quadratic_ratio >= 1 / (4 kappa).
    Once the draw budget is spent, a point draw keeps a candidate that breaks
    its side condition; sampling_failures counts those, and a check with any
    does not pass. The field is named `passed` because `pass` is reserved in
    Python; serialized reports use the key "pass".
    """

    n_points: int
    min_quadratic_ratio: float
    smoothness_max: float
    kappa: float
    s: int
    passed: bool
    sampling_failures: int = 0

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if not np.isfinite(self.min_quadratic_ratio):
            raise ValueError("min_quadratic_ratio must be finite")


def _gauge_free_minimum(h, x, M, beta) -> float:
    """Minimum of 2 (D v)^T M v / ||v||^2 over every v orthogonal to the
    gauge tangents of (h, x), D holding beta[0] on the dh coordinates and
    beta[1] on the dx ones: the smallest eigenvalue of D M + M D on N, the
    last 4K - 2 columns of a complete QR of the two tangents.
    """
    # (h, x) -> (h / conj(c), c x) moves along these at c = e^t and c = e^{it}
    tangents = np.array([np.concatenate([-h.real, -h.imag, x.real, x.imag]),
                         np.concatenate([-h.imag, h.real, -x.imag, x.real])])
    N = np.linalg.qr(tangents.T, mode="complete")[0][:, 2:]
    DM = np.repeat(beta, 2 * len(h))[:, None] * M
    return float(np.linalg.eigvalsh(N.T @ (DM + DM.T) @ N)[0])


def check_rsc(inst: ProblemInstance, n_points: int, delta: float, rng_seed: int) -> RscReport:
    """The clean-curvature quadratic form's exact minimum over sampled points.

    Each point starts as a copy of the truth. Per point, per source, h_i and
    then x_i are drawn uniformly in the l2 ball of radius delta/(kappa
    sqrt(s)) around the truth's vector, each redrawn until its own side
    condition holds: max_j |b_j^* h_i| <= 2 c_b mu log^2(m) ||h'_i|| /
    sqrt(m), max_j |a_ij^*(x_i - x'_i)| <= 2 c_a ||x'_i|| / (sqrt(s)
    log^{3/2} m), with c_a = _C_A and c_b = _C_B. All redraws come from one
    budget of _REJECTION_BUDGET; once it is spent, a rejected draw is kept
    and counted as a sampling failure. After the points, each point draws
    per-source scalars beta_{i1} (on dh), beta_{i2} (on dx) uniformly
    within delta/(kappa sqrt(s)) of 1/kappa; its ratio is the smallest
    _gauge_free_minimum over its sources.
    """
    truth = inst.truth
    if truth is None:
        raise ValueError("check_rsc requires an instance with ground truth")
    n_points = _integer("n_points", n_points, 1)
    if not 0 < delta < math.inf:
        raise ValueError(f"check_rsc needs a finite delta > 0, got {delta}")
    m = inst.dims.m
    if m < 2:
        raise ValueError(f"check_rsc needs m >= 2, got m={m}: its side conditions divide by log m")
    s, K = truth.h.shape
    kappa = truth.kappa
    mu = metrics.incoherence_mu(truth, m)
    rho = delta / (kappa * math.sqrt(s))
    lim_h = 2.0 * _C_B * mu * math.log(m) ** 2 / math.sqrt(m) * np.linalg.norm(truth.h, axis=1)
    lim_x = 2.0 * _C_A / (math.sqrt(s) * math.log(m) ** 1.5) * np.linalg.norm(truth.x, axis=1)
    gen = _rng.stream(rng_seed, _rng.TAG_AUX)
    failures = 0
    spare = _REJECTION_BUDGET
    points = [DemixState(h=truth.h.copy(), x=truth.x.copy()) for _ in range(n_points)]
    for z, i, on_h in itertools.product(points, range(s), (True, False)):
        v, center = (z.h[i], truth.h[i]) if on_h else (z.x[i], truth.x[i])
        while True:
            d = _rng.complex_standard_normal(gen, (K,))
            nd = np.linalg.norm(d)
            if nd > 0:
                v[:] = center + (rho * gen.random() ** (1.0 / (2 * K)) / nd) * d
                if on_h and np.max(np.abs(problem.row_products(v, m))) <= lim_h[i]:
                    break
                if not on_h and np.max(np.abs(inst.A[i] @ np.conj(v - center))) <= lim_x[i]:
                    break
            if spare == 0:
                failures += 1
                break
            spare -= 1
    lo = max(1.0 / kappa - rho, 1e-3 / kappa)
    hi = 1.0 / kappa + rho
    betas = lo + (hi - lo) * gen.random((n_points, s, 2))
    fwd_truth = forward_parts(truth.h, truth.x, inst.A, inst.B)[2]

    min_ratio = math.inf
    smooth_max = 0.0
    smooth = True
    for z, beta in zip(points, betas):
        for i, M in enumerate(_source_curvatures(z, inst, fwd_truth)):
            top = float(np.max(np.abs(np.linalg.eigvalsh(M))))
            smooth_max = max(smooth_max, top)
            smooth &= top <= (2.0 + s) * truth.d[i] / 2.0
            min_ratio = min(min_ratio, _gauge_free_minimum(z.h[i], z.x[i], M, beta[i]))

    return RscReport(
        n_points=n_points,
        min_quadratic_ratio=min_ratio,
        smoothness_max=smooth_max,
        kappa=float(kappa),
        s=s,
        passed=bool(min_ratio >= 1.0 / (4.0 * kappa) and smooth and not failures),
        sampling_failures=failures,
    )


def spectral_concentration(
    dims: Dimensions, sigma: float, n_trials: int, rng_seed: int, kappa: float = 1.0
) -> np.ndarray:
    """Spectral deviations ||M_i - h'_i x'_i^*||, shape (n_trials, s).

    Truth is fixed from rng_seed and kappa; each trial redraws the design
    (and noise) from a derived seed, forms its back-projections M_i and keeps
    only their deviations, so memory does not grow with n_trials.
    """
    n_trials = _integer("n_trials", n_trials, 1)
    truth = sample_ground_truth(dims, kappa, rng_seed)
    B = make_dft_rows(dims.m, dims.K)
    devs = np.empty((n_trials, dims.s))
    for t in range(n_trials):
        sk = _rng.derive_seed(rng_seed, t)
        A = sample_design(dims, sk)
        y, _ = synthesize_measurements(truth, A, sigma, sk)
        Ms = backprojection_matrices(A, B, y)
        del A, y  # release this trial's design before the next one is drawn
        devs[t] = np.linalg.svd(Ms - truth.products[0], compute_uv=False)[:, 0]
    return devs


def leave_one_out_trajectories(inst: ProblemInstance, l_set, *, eta=SolverConfig.eta,
                               max_iters=SolverConfig.max_iters) -> dict:
    """Main vs leave-one-out runs of `run`, reporting aligned proximity.

    The main sequence is `run` on the instance; leave-one-out sequence l is
    `run(..., held_out=l)` on the same instance, whose mask on y[l] and on
    the residual's entry l deletes measurement l from the back-projection,
    the loss and both gradients; only y is copied, for the held-out start.
    It needs m >= 2. Each run takes max_iters steps of size eta. At every
    iteration the main iterate is aligned to the truth and each leave-one-out
    iterate onto that aligned main iterate; the report carries per-iteration
    max-over-l proximity. The runs see no truth, so they never stop early and
    keep only their first and last records; a diverging run raises
    DivergenceError.
    """
    truth = inst.truth
    if truth is None:
        raise ValueError("leave_one_out_trajectories requires ground truth")
    l_set = list(l_set)
    if not l_set:
        raise ValueError("l_set must be nonempty")
    m = inst.dims.m
    if m < 2:
        raise ValueError(f"leave-one-out needs m >= 2, got m={m}: a held-out run has "
                         "no measurement left to fit")
    for l in l_set:
        _check_held_out(l, m)

    T = max_iters
    cfg = SolverConfig(eta=eta, max_iters=T, record_every=T)
    per_l = np.empty((T + 1, len(l_set)))
    dist_truth = np.empty(T + 1)
    refs = []  # the main iterates, each aligned to the truth

    def on_main(t, state):
        align = metrics.align_state(state, truth)
        a = align.alpha[:, None]
        refs.append(DemixState(h=state.h / np.conj(a), x=a * state.x))
        dist_truth[t] = metrics.dist_from_errors(align.error, truth.d)

    blind = dataclasses.replace(inst, truth=None)
    run(blind, cfg, on_iterate=on_main)
    for k, l in enumerate(l_set):
        def on_loo(t, state):
            g = metrics.align_state(state, refs[t]).error
            per_l[t, k] = metrics.dist_from_errors(g, truth.d)

        run(blind, cfg, on_iterate=on_loo, held_out=l)
    return {
        "iters": np.arange(T + 1),
        "per_l": per_l,
        "series": per_l.max(axis=1),
        "dist_truth": dist_truth,
        "dist_initial": float(dist_truth[0]),
        "l_set": l_set,
    }


def _plain(v):
    """json.dump's fallback for the report values JSON has no type for."""
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if dataclasses.is_dataclass(v):
        return dataclasses.asdict(v)
    raise TypeError(f"a report cannot hold {type(v).__name__} {v!r}")


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")


def _rsc(dims, kappa, sigma, seed, *, n_points=50, delta=0.1):
    """check_rsc on the instance of this setting and seed."""
    inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
    rep = check_rsc(inst, n_points=n_points, delta=delta, rng_seed=seed)
    metrics_out = {k: v for k, v in dataclasses.asdict(rep).items() if k != "passed"}
    return {"delta": delta}, metrics_out, rep.passed


def _loo(dims, kappa, sigma, seed, *, l_set=(), n_holdout=8, loo_factor=0.1,
         eta=SolverConfig.eta, max_iters=SolverConfig.max_iters):
    """Leave-one-out proximity over l_set, or over n_holdout indices drawn
    from the seed, for runs of max_iters steps of size eta; passes when it
    stays below loo_factor times the initial distance to the truth.
    """
    n_holdout = _integer("n_holdout", n_holdout, 1)
    if not 0 < loo_factor < math.inf:
        raise ValueError(f"loo_factor must be > 0 and finite, got {loo_factor}")
    inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
    if not l_set:
        gen = _rng.stream(seed, _rng.TAG_AUX)
        count = min(n_holdout, dims.m)
        l_set = sorted(int(v) for v in gen.choice(dims.m, size=count, replace=False))
    res = leave_one_out_trajectories(inst, l_set, eta=eta, max_iters=max_iters)
    max_proximity = float(np.max(res["series"]))
    passed = bool(res["dist_initial"] > 0 and max_proximity < loo_factor * res["dist_initial"])
    params = {"eta": eta, "max_iters": max_iters, "l_set": l_set, "loo_factor": loo_factor}
    metrics_out = {"series": res["series"], "dist_initial": res["dist_initial"],
                   "max_proximity": max_proximity}
    return params, metrics_out, passed


def _spectral(dims, kappa, sigma, seed, *, m_sweep=(400, 1600, 6400), n_trials=200):
    """Back-projection spread at each m of m_sweep (dims.m is not used);
    passes when the mean deviation falls strictly as m grows, which takes at
    least two entries.
    """
    table = []
    for m in m_sweep:
        devs = spectral_concentration(dataclasses.replace(dims, m=m), sigma, n_trials, seed, kappa)
        table.append({"m": m, "mean_deviation": float(devs.mean()),
                      "max_deviation": float(devs.max())})
    means = [row["mean_deviation"] for row in table]
    passed = len(means) > 1 and all(b < a for a, b in zip(means, means[1:]))
    params = {"dims": {"s": dims.s, "K": dims.K}, "m_sweep": m_sweep, "n_trials": n_trials}
    return params, {"table": table}, passed


# verify_* experiment -> its check. A check takes the scalar setting (dims,
# kappa, sigma) and the seed, and returns its own params, metrics and pass flag,
# which run_check forms into the report. Its keyword-only parameters are the
# other config keys the experiment reads, with those keys' defaults.
CHECKS = {"verify_rsc": _rsc, "verify_loo": _loo, "verify_spectral": _spectral}


def run_check(experiment: str, dims, kappa, sigma, seed: int, **settings) -> dict:
    """The report of a verify_* experiment at one scalar setting and seed; the
    check's own params overlay the setting's (verify_spectral's {s, K} dims)."""
    params, metrics_out, passed = CHECKS[experiment](dims, kappa, sigma, seed, **settings)
    return {"check": experiment.removeprefix("verify_"), "seed": seed, "pass": passed,
            "params": {"dims": dims, "kappa": kappa, "sigma": sigma, **params},
            "metrics": metrics_out, "notes": [NOISE_MODEL_NOTE]}
