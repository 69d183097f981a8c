"""Desk-scale empirical checks of the geometry the solver relies on.

Covers: sampled restricted strong convexity/smoothness of the clean Hessian
near the truth, spectral concentration of the back-projection matrices
around a truth drawn at the configured kappa, and leave-one-out trajectory
proximity, which runs `run` once per held-out index l on the instance with
row l of B and y zeroed. CHECKS is the table of verify_* experiments that
`demix verify` runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _rng, metrics
# _gradient_full is not called here; perfbench asserts that tracing rewraps it here too
from .objective import DemixState, _check_dense_cap, _gradient_full, source_hessians
from .problem import Dimensions, ProblemInstance, make_dft_rows, make_instance, sample_design
from .problem import sample_ground_truth, synthesize_measurements
from .solver import SolverConfig, backprojection_matrices, run

_RETRY_LIMIT = 10_000
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
    """Sampled strong-convexity/smoothness summary near the truth.

    min_quadratic_ratio is the minimum over samples of
    u^*[D H + H D]u / ||u||^2 with H the clean Hessian at a sampled point;
    smoothness_max is the largest sampled operator norm of H.
    sampling_failures adds up two events: a point draw whose retry budget
    ran out (the last draw is kept), and a direction that fell back to the
    raw, unaligned difference of its last pair. The field is named
    `passed` because `pass` is reserved in Python; serialized reports use
    the key "pass".
    """

    samples_tested: int
    min_quadratic_ratio: float
    smoothness_max: float
    kappa: float
    s: int
    passed: bool
    sampling_failures: int = 0
    delta: float = 0.0

    def __post_init__(self):
        if self.samples_tested < 1:
            raise ValueError("samples_tested must be >= 1")
        if not np.isfinite(self.min_quadratic_ratio):
            raise ValueError("min_quadratic_ratio must be finite")


def _sample_near(gen, center, radius, accept):
    """Uniform draw in the l2 ball around center, rejected until accept().

    Returns (vector, failed) where failed means the retry budget ran out
    and the last draw was kept anyway.
    """
    K = center.size
    v = center
    for _ in range(_RETRY_LIMIT):
        d = _rng.complex_standard_normal(gen, (K,))
        nd = np.linalg.norm(d)
        if nd == 0:
            continue
        r = radius * gen.random() ** (1.0 / (2 * K))
        v = center + (r / nd) * d
        if accept(v):
            return v, False
    return v, True


def check_rsc(
    inst: ProblemInstance,
    n_points: int,
    n_dirs: int,
    delta: float,
    rng_seed: int,
) -> RscReport:
    """Sample the clean-Hessian quadratic form over the contraction region.

    Points z are drawn per source in the l2 ball of radius delta/(kappa
    sqrt(s)) around the truth and rejected until both incoherence side
    conditions hold: max_j |a_ij^*(x_i - x'_i)| <= 2 c_a ||x'_i|| /
    (sqrt(s) log^{3/2} m) and max_j |b_j^* h_i| <= 2 c_b mu log^2(m)
    ||h'_i|| / sqrt(m), with c_a = _C_A and c_b = _C_B. Directions u
    stack per-source differences of an aligned pair of such points (the
    second point aligned onto the first), and D carries per-source scalars
    beta_{i1}, beta_{i2} drawn uniformly within delta/(kappa sqrt(s)) of
    1/kappa.
    """
    truth = inst.truth
    if truth is None:
        raise ValueError("check_rsc requires an instance with ground truth")
    s, K = truth.h.shape
    _check_dense_cap(s, K)
    if n_points < 1 or n_dirs < 1:
        raise ValueError("n_points and n_dirs must be >= 1")
    m = inst.dims.m
    kappa = truth.kappa
    mu = truth.mu if truth.mu is not None else metrics.incoherence_mu(truth, inst.B)
    rho = delta / (kappa * math.sqrt(s))
    ta = 2.0 * _C_A / (math.sqrt(s) * math.log(m) ** 1.5)
    tb = 2.0 * _C_B * mu * math.log(m) ** 2 / math.sqrt(m)
    gen = _rng.stream(rng_seed, _rng.TAG_AUX)
    Bc = np.conj(inst.B)
    hn = np.linalg.norm(truth.h, axis=1)
    xn = np.linalg.norm(truth.x, axis=1)
    failures = 0

    def accept_h(i):
        lim = tb * hn[i]
        return lambda v: np.max(np.abs(Bc @ v)) <= lim

    def accept_x(i):
        Ac = np.conj(inst.A[i])
        lim = ta * xn[i]
        xt = truth.x[i]
        return lambda v: np.max(np.abs(Ac @ (v - xt))) <= lim

    def sample_state(radius):
        nonlocal failures
        h = np.empty((s, K), dtype=complex)
        x = np.empty((s, K), dtype=complex)
        for i in range(s):
            h[i], bad = _sample_near(gen, truth.h[i], radius, accept_h(i))
            failures += bad
            x[i], bad = _sample_near(gen, truth.x[i], radius, accept_x(i))
            failures += bad
        return DemixState(h=h, x=x)

    def in_ball(i, h, x):
        near = np.linalg.norm(h - truth.h[i]) <= rho and np.linalg.norm(x - truth.x[i]) <= rho
        return near and accept_h(i)(h) and accept_x(i)(x)

    def direction():
        """(u, D): u has (s, 4K) rows (dh, dx, conj dh, conj dx), the
        per-source difference of an aligned in-ball pair (the second point
        aligned onto the first) or, once the retry budget is spent, the raw
        difference of the last pair, so the report stays well formed. D
        holds the matching diagonal (beta_1, beta_2, beta_1, beta_2)."""
        nonlocal failures
        for _ in range(_RETRY_LIMIT):
            za = sample_state(0.8 * rho)
            zb = sample_state(0.8 * rho)
            alphas = metrics.align_source(zb.h, zb.x, za.h, za.x)
            hb = zb.h / np.conj(alphas)[:, None]
            xb = alphas[:, None] * zb.x
            dh, dx = za.h - hb, za.x - xb
            if all(in_ball(i, hb[i], xb[i]) for i in range(s)) and (
                np.vdot(dh, dh).real + np.vdot(dx, dx).real > 0
            ):
                break
        else:
            failures += 1
            dh, dx = za.h - zb.h, za.x - zb.x
        u = np.concatenate([dh, dx, np.conj(dh), np.conj(dx)], axis=1)
        betas = lo + (hi - lo) * gen.random((s, 2))
        return u, np.repeat(betas[:, [0, 1, 0, 1]], K, axis=1)

    lo = max(1.0 / kappa - rho, 1e-3 / kappa)
    hi = 1.0 / kappa + rho
    points = [sample_state(rho) for _ in range(n_points)]
    dirs = [direction() for _ in range(n_dirs)]

    min_ratio = math.inf
    smooth_max = 0.0
    for z in points:
        Hs = source_hessians(z, inst)
        smooth_max = max(smooth_max, float(np.max(np.abs(np.linalg.eigvalsh(Hs)))))
        for u, D in dirs:
            num = den = 0.0
            for Hi, ui, di in zip(Hs, u, D):
                num += 2.0 * float(np.real(np.vdot(di * ui, Hi @ ui)))
                den += float(np.real(np.vdot(ui, ui)))
            min_ratio = min(min_ratio, num / den)

    return RscReport(
        samples_tested=n_points * n_dirs,
        min_quadratic_ratio=float(min_ratio),
        smoothness_max=smooth_max,
        kappa=float(kappa),
        s=s,
        passed=bool(min_ratio >= 1.0 / (4.0 * kappa) and smooth_max <= 2.0 + s),
        sampling_failures=failures,
        delta=float(delta),
    )


def spectral_concentration(
    dims: Dimensions, sigma: float, n_trials: int, rng_seed: int, kappa: float = 1.0
) -> dict:
    """Monte-Carlo spread of the back-projections around h'_i x'_i^*.

    Truth is fixed from rng_seed and kappa; each trial redraws the design
    (and noise) from a derived seed. Reports the spectral deviations ||M_i -
    h'_i x'_i^*||, their mean/max, and the entrywise trial mean of M_i with
    standard errors for expectation checks.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    truth = sample_ground_truth(dims, kappa, rng_seed)
    B = make_dft_rows(dims.m, dims.K)
    expected = np.stack([np.outer(truth.h[i], np.conj(truth.x[i])) for i in range(dims.s)])
    devs = np.empty((n_trials, dims.s))
    Ms_all = np.empty((n_trials, dims.s, dims.K, dims.K), dtype=complex)
    for t in range(n_trials):
        sk = _rng.derive_seed(rng_seed, t)
        A = sample_design(dims, sk)
        y, _ = synthesize_measurements(truth, A, B, sigma, sk)
        Ms = backprojection_matrices(A, B, y)
        Ms_all[t] = Ms
        for i in range(dims.s):
            devs[t, i] = np.linalg.svd(Ms[i] - expected[i], compute_uv=False)[0]
    mean_M = Ms_all.mean(axis=0)
    if n_trials > 1:
        se_re = Ms_all.real.std(axis=0, ddof=1) / math.sqrt(n_trials)
        se_im = Ms_all.imag.std(axis=0, ddof=1) / math.sqrt(n_trials)
    else:
        se_re = np.full(mean_M.shape, np.inf)
        se_im = np.full(mean_M.shape, np.inf)
    return {
        "dims": {"s": dims.s, "m": dims.m, "K": dims.K},
        "sigma": float(sigma),
        "n_trials": int(n_trials),
        "seed": int(rng_seed),
        "deviations": devs,
        "mean_deviation": float(devs.mean()),
        "max_deviation": float(devs.max()),
        "mean_M": mean_M,
        "se_re": se_re,
        "se_im": se_im,
        "expected": expected,
        "truth": truth,
    }


def leave_one_out_trajectories(inst: ProblemInstance, cfg: SolverConfig, l_set) -> dict:
    """Main vs leave-one-out runs of `run`, reporting aligned proximity.

    The main sequence is `run` on the instance; leave-one-out sequence l is
    `run` on the instance with row l of B and y set to zero, which deletes
    measurement l from the back-projection, the loss and both gradients. At
    every iteration the main iterate is aligned to the truth and each
    leave-one-out iterate onto that aligned main iterate; the report carries
    per-iteration max-over-l proximity. The runs see no truth, so they keep
    no per-record metrics and ignore stop_tol; a diverging run raises
    DivergenceError.
    """
    truth = inst.truth
    if truth is None:
        raise ValueError("leave_one_out_trajectories requires ground truth")
    l_set = list(l_set)
    if not l_set:
        raise ValueError("l_set must be nonempty")
    m = inst.dims.m
    for l in l_set:
        if not 0 <= l < m:
            raise IndexError(f"held-out index {l} outside [0, {m})")

    T = cfg.max_iters
    per_l = np.empty((T + 1, len(l_set)))
    dist_truth = np.empty(T + 1)
    ref_h = np.empty((T + 1, *truth.h.shape), dtype=complex)
    ref_x = np.empty_like(ref_h)

    def on_main(t, state):
        align = metrics.align_state(state, truth)
        ref_h[t] = state.h / np.conj(align.alpha)[:, None]
        ref_x[t] = align.alpha[:, None] * state.x
        dist_truth[t] = align.dist(truth.d)

    blind = dataclasses.replace(inst, truth=None)
    run(blind, cfg, on_iterate=on_main)
    if m == 1:
        # the leave-one-out loss is identically zero, so each sequence stays
        # at its zero start, whose aligned error is the reference energy
        for t, (hs, xs) in enumerate(zip(ref_h, ref_x)):
            g = [np.linalg.norm(h) ** 2 + np.linalg.norm(x) ** 2 for h, x in zip(hs, xs)]
            per_l[t] = metrics.dist_from_errors(g, truth.d)
    else:
        for k, l in enumerate(l_set):
            B, y = inst.B.copy(), inst.y.copy()
            B[l], y[l] = 0, 0

            def on_loo(t, state):
                g = metrics.aligned_error(state.h, state.x, ref_h[t], ref_x[t])[1]
                per_l[t, k] = metrics.dist_from_errors(g, truth.d)

            run(dataclasses.replace(blind, B=B, y=y), cfg, on_iterate=on_loo)
    return {
        "iters": np.arange(T + 1),
        "per_l": per_l,
        "series": per_l.max(axis=1),
        "dist_truth": dist_truth,
        "dist_initial": float(dist_truth[0]),
        "l_set": l_set,
        "degenerate": m == 1,
    }


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": float(v.real), "im": float(v.imag)}
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist()) if v.ndim else _jsonable(v.item())
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if dataclasses.is_dataclass(v):
        return _jsonable(dataclasses.asdict(v))
    return str(v)


def make_report(check: str, params: dict, seed: int, metrics_out: dict, passed: bool) -> dict:
    """Normalized report dict; its one note is the advisory noise-model note."""
    return {
        "check": check,
        "params": _jsonable(params),
        "seed": int(seed),
        "metrics": _jsonable(metrics_out),
        "pass": bool(passed),
        "notes": [NOISE_MODEL_NOTE],
    }


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _rsc(dims, kappa, sigma, scfg, seed, *, n_points=50, n_dirs=20, delta=0.1):
    """check_rsc on the instance of this setting and seed."""
    inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
    rep = check_rsc(inst, n_points=n_points, n_dirs=n_dirs, delta=delta, rng_seed=seed)
    params = {"dims": dims, "kappa": kappa, "sigma": sigma, "delta": rep.delta}
    fields = dataclasses.asdict(rep)
    metrics_out = {k: v for k, v in fields.items() if k not in ("passed", "delta")}
    return params, metrics_out, rep.passed


def _loo(dims, kappa, sigma, scfg, seed, *, l_set=(), n_holdout=8, loo_factor=0.1):
    """Leave-one-out proximity over l_set, or over n_holdout indices drawn
    from the seed; passes when it stays below loo_factor times the initial
    distance to the truth.
    """
    inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
    if not l_set:
        gen = _rng.stream(seed, _rng.TAG_AUX)
        count = min(n_holdout, dims.m)
        l_set = sorted(int(v) for v in gen.choice(dims.m, size=count, replace=False))
    res = leave_one_out_trajectories(inst, scfg, l_set)
    max_proximity = float(np.max(res["series"]))
    passed = bool(res["dist_initial"] > 0 and max_proximity < loo_factor * res["dist_initial"])
    params = {"dims": dims, "kappa": kappa, "sigma": sigma, "eta": scfg.eta,
              "max_iters": scfg.max_iters, "l_set": l_set, "loo_factor": loo_factor}
    metrics_out = {"series": res["series"], "dist_initial": res["dist_initial"],
                   "max_proximity": max_proximity, "degenerate": res["degenerate"]}
    return params, metrics_out, passed


def _spectral(dims, kappa, sigma, scfg, seed, *, m_sweep=(400, 1600, 6400), n_trials=200):
    """Back-projection spread at each m of m_sweep (dims.m is not used);
    passes when the mean deviation falls strictly as m grows.
    """
    table = []
    for m in m_sweep:
        rep = spectral_concentration(
            Dimensions(s=dims.s, m=m, K=dims.K), sigma, n_trials, seed, kappa
        )
        table.append(
            {"m": m, "mean_deviation": rep["mean_deviation"], "max_deviation": rep["max_deviation"]}
        )
    means = [row["mean_deviation"] for row in table]
    passed = all(b < a for a, b in zip(means, means[1:]))
    params = {"dims": {"s": dims.s, "K": dims.K}, "m_sweep": m_sweep, "kappa": kappa,
              "sigma": sigma, "n_trials": n_trials}
    return params, {"table": table}, passed


# verify_* experiment -> (report name, check). A check takes the scalar setting
# (dims, kappa, sigma, solver config) and the seed, and returns the report's
# params, metrics and pass flag. Its keyword-only parameters are the
# config extras the experiment reads, and their defaults are the extras'
# defaults.
CHECKS = {
    "verify_rsc": ("rsc", _rsc),
    "verify_loo": ("loo", _loo),
    "verify_spectral": ("spectral", _spectral),
}


def check_extras(experiment: str) -> dict:
    """The config extras a verify_* experiment reads, with their defaults."""
    return dict(CHECKS[experiment][1].__kwdefaults__)


def run_check(experiment: str, dims, kappa, sigma, scfg, seed: int, **extras) -> dict:
    """The report of a verify_* experiment at one scalar setting and seed."""
    name, check = CHECKS[experiment]
    params, metrics_out, passed = check(dims, kappa, sigma, scfg, seed, **extras)
    return make_report(name, params, seed, metrics_out, passed)
