"""Desk-scale empirical checks of the geometry the solver relies on.

Covers: the closed-form population Hessian at the truth, sampled restricted
strong convexity/smoothness of the clean Hessian near the truth, spectral
concentration of the back-projection matrices, leave-one-out trajectory
proximity, and contraction of the per-source alignment parameters.
CHECKS is the table of verify_* experiments that `demix verify` runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _rng, metrics
from .objective import DemixState, SizeCapError, hessian_blocks, assemble_source_hessian
from .objective import _gradient_full, leave_one_out_arrays
from .problem import Dimensions, ProblemInstance, make_dft_rows, make_instance, sample_design
from .problem import sample_ground_truth, synthesize_measurements
from .solver import SolverConfig, backprojection_matrices, init_from_matrices
from .solver import run, step_arrays

_RETRY_LIMIT = 10_000

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
    smoothness_max is the largest sampled operator norm of H. The field is
    named `passed` because `pass` is reserved in Python; serialized reports
    use the key "pass".
    """

    samples_tested: int
    min_quadratic_ratio: float
    smoothness_max: float
    kappa: float
    s: int
    passed: bool
    sampling_failures: int = 0
    delta: float = 0.0
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.samples_tested < 1:
            raise ValueError("samples_tested must be >= 1")
        if not np.isfinite(self.min_quadratic_ratio):
            raise ValueError("min_quadratic_ratio must be finite")


def population_hessian(truth) -> np.ndarray:
    """Expected Wirtinger Hessian at the truth, (4sK) x (4sK).

    Block diagonal over sources; each 4K x 4K block, in the coordinate
    order (dh_i, dx_i, conj dh_i, conj dx_i), is the identity plus
    h x^T / x h^T off-blocks:

        [ I    0      0     h x^T ]
        [ 0    I    x h^T     0   ]
        [ 0  (xh^T)^*  I      0   ]
        [ (hx^T)^* 0   0      I   ]

    The closed form assumes balanced sources, so ||h_i|| != ||x_i|| is
    rejected.
    """
    s, K = truth.h.shape
    n = 4 * s * K
    if n > 4096:
        raise SizeCapError(f"4sK = {n} exceeds the 4096 dense-Hessian cap")
    hn = np.linalg.norm(truth.h, axis=1)
    xn = np.linalg.norm(truth.x, axis=1)
    if np.any(np.abs(hn - xn) > 1e-9 * np.maximum(1.0, hn)):
        raise ValueError(
            "population_hessian requires ||h_i|| = ||x_i|| per source; "
            f"got ||h|| = {hn}, ||x|| = {xn}"
        )
    out = np.zeros((n, n), dtype=complex)
    for i in range(s):
        h, x = truth.h[i], truth.x[i]
        blk = np.eye(4 * K, dtype=complex)
        hx = np.outer(h, x)  # no conjugation: h x^T
        xh = np.outer(x, h)
        blk[0:K, 3 * K : 4 * K] = hx
        blk[K : 2 * K, 2 * K : 3 * K] = xh
        blk[2 * K : 3 * K, K : 2 * K] = xh.conj().T
        blk[3 * K : 4 * K, 0:K] = hx.conj().T
        o = 4 * K * i
        out[o : o + 4 * K, o : o + 4 * K] = blk
    return out


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
    c_a: float = 6.0,
    c_b: float = 1.0,
) -> RscReport:
    """Sample the clean-Hessian quadratic form over the contraction region.

    Points z are drawn per source in the l2 ball of radius delta/(kappa
    sqrt(s)) around the truth and rejected until both incoherence side
    conditions hold: max_j |a_ij^*(x_i - x'_i)| <= 2 c_a ||x'_i|| /
    (sqrt(s) log^{3/2} m) and max_j |b_j^* h_i| <= 2 c_b mu log^2(m)
    ||h'_i|| / sqrt(m). Directions u stack per-source differences of an
    aligned pair of such points (the second point aligned onto the first),
    and D carries per-source scalars beta_{i1}, beta_{i2} drawn uniformly
    within delta/(kappa sqrt(s)) of 1/kappa.
    """
    truth = inst.truth
    if truth is None:
        raise ValueError("check_rsc requires an instance with ground truth")
    s, K = truth.h.shape
    if 4 * s * K > 4096:
        raise SizeCapError(f"4sK = {4 * s * K} exceeds the 4096 dense-Hessian cap")
    if n_points < 1 or n_dirs < 1:
        raise ValueError("n_points and n_dirs must be >= 1")
    m = inst.dims.m
    kappa = truth.kappa
    mu = truth.mu if truth.mu is not None else metrics.incoherence_mu(truth, inst.B)
    rho = delta / (kappa * math.sqrt(s))
    ta = 2.0 * c_a / (math.sqrt(s) * math.log(m) ** 1.5)
    tb = 2.0 * c_b * mu * math.log(m) ** 2 / math.sqrt(m)
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

    points = [sample_state(rho) for _ in range(n_points)]

    # admissible directions: per-source differences of aligned in-ball pairs
    dirs = []
    for _ in range(n_dirs):
        u_parts = None
        for _ in range(_RETRY_LIMIT):
            za = sample_state(0.8 * rho)
            zb = sample_state(0.8 * rho)
            parts = []
            ok = True
            for i in range(s):
                alpha = metrics.align_source(zb.h[i], zb.x[i], za.h[i], za.x[i])
                hb = zb.h[i] / np.conj(alpha)
                xb = alpha * zb.x[i]
                in_ball = (
                    np.linalg.norm(hb - truth.h[i]) <= rho
                    and np.linalg.norm(xb - truth.x[i]) <= rho
                    and accept_h(i)(hb)
                    and accept_x(i)(xb)
                )
                if not in_ball:
                    ok = False
                    break
                dh = za.h[i] - hb
                dx = za.x[i] - xb
                parts.append(np.concatenate([dh, dx, np.conj(dh), np.conj(dx)]))
            if ok and sum(np.vdot(p, p).real for p in parts) > 0:
                u_parts = parts
                break
        if u_parts is None:
            # retry budget exhausted: fall back to the raw (unaligned)
            # difference of the last pair so the report stays well formed
            failures += 1
            u_parts = [
                np.concatenate(
                    [
                        za.h[i] - zb.h[i],
                        za.x[i] - zb.x[i],
                        np.conj(za.h[i] - zb.h[i]),
                        np.conj(za.x[i] - zb.x[i]),
                    ]
                )
                for i in range(s)
            ]
        lo = max(1.0 / kappa - rho, 1e-3 / kappa)
        hi = 1.0 / kappa + rho
        betas = lo + (hi - lo) * gen.random((s, 2))
        dirs.append((u_parts, betas))

    min_ratio = math.inf
    smooth_max = 0.0
    for z in points:
        Hs = [
            assemble_source_hessian(hessian_blocks(z, inst, i, clean=True))
            for i in range(s)
        ]
        for Hi in Hs:
            smooth_max = max(smooth_max, float(np.max(np.abs(np.linalg.eigvalsh(Hi)))))
        for u_parts, betas in dirs:
            num = 0.0
            den = 0.0
            for i in range(s):
                u = u_parts[i]
                dvec = np.concatenate(
                    [
                        np.full(K, betas[i, 0]),
                        np.full(K, betas[i, 1]),
                        np.full(K, betas[i, 0]),
                        np.full(K, betas[i, 1]),
                    ]
                )
                num += 2.0 * float(np.real(np.vdot(dvec * u, Hs[i] @ u)))
                den += float(np.real(np.vdot(u, u)))
            min_ratio = min(min_ratio, num / den)

    report = RscReport(
        samples_tested=n_points * n_dirs,
        min_quadratic_ratio=float(min_ratio),
        smoothness_max=smooth_max,
        kappa=float(kappa),
        s=s,
        passed=bool(min_ratio >= 1.0 / (4.0 * kappa) and smooth_max <= 2.0 + s),
        sampling_failures=failures,
        delta=float(delta),
        notes=[NOISE_MODEL_NOTE],
    )
    return report


def spectral_concentration(dims: Dimensions, sigma: float, n_trials: int, rng_seed: int) -> dict:
    """Monte-Carlo spread of the back-projections around h'_i x'_i^*.

    Truth is fixed from rng_seed; each trial redraws the design (and noise)
    from a derived seed. Reports the spectral deviations ||M_i - h'_i
    x'_i^*||, their mean/max, and the entrywise trial mean of M_i with
    standard errors for expectation checks.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    truth = sample_ground_truth(dims, 1.0, rng_seed)
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
        "notes": [NOISE_MODEL_NOTE],
    }


def _pair_distance(state: DemixState, ref_h: np.ndarray, ref_x: np.ndarray, d: np.ndarray) -> float:
    """dist between an iterate and a reference state, mutually aligned.

    Each source of `state` is aligned onto the reference pair before the
    l2 comparison; contributions are normalized by the ground-truth source
    energies d_i, matching the truth-distance convention. Zero-norm sources
    (the degenerate leave-one-out case) contribute the reference energy.
    """
    total = 0.0
    for i in range(state.h.shape[0]):
        h, x = state.h[i], state.x[i]
        if np.linalg.norm(h) == 0 or np.linalg.norm(x) == 0:
            g = float(np.linalg.norm(ref_h[i]) ** 2 + np.linalg.norm(ref_x[i]) ** 2)
        else:
            _, g = metrics.aligned_error(h, x, ref_h[i], ref_x[i])
        total += g / d[i]
    return float(np.sqrt(max(total, 0.0)))


def leave_one_out_trajectories(inst: ProblemInstance, cfg: SolverConfig, l_set) -> dict:
    """Lockstep main vs leave-one-out runs, reporting aligned proximity.

    The main sequence starts from the usual spectral initialization; each
    leave-one-out sequence l starts from the back-projections with the l-th
    rank-one term deleted and descends the loss with measurement l removed.
    At every iteration the main iterate is aligned to the truth and each
    leave-one-out iterate is then aligned onto that aligned main iterate;
    the report carries per-iteration max-over-l proximity.
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
    degenerate = m == 1

    Ms = backprojection_matrices(inst.A, inst.B, inst.y)
    main = init_from_matrices(Ms)
    loo_states = []
    for l in l_set:
        Ml = Ms - inst.y[l] * np.einsum("k,il->ikl", inst.B[l], np.conj(inst.A[:, l, :]))
        loo_states.append(init_from_matrices(Ml))

    T = cfg.max_iters
    per_l = np.empty((T + 1, len(l_set)))
    dist_truth = np.empty(T + 1)
    for t in range(T + 1):
        align = metrics.align_state(main, truth)
        ref_h = main.h / np.conj(align.alpha)[:, None]
        ref_x = align.alpha[:, None] * main.x
        dist_truth[t] = align.dist(truth.d)
        for k, st in enumerate(loo_states):
            per_l[t, k] = _pair_distance(st, ref_h, ref_x, truth.d)
        if t == T:
            break
        Gh, Gx, _, _, _ = _gradient_full(main, inst)
        main = step_arrays(main, Gh, Gx, cfg.eta)
        if not degenerate:
            for k, l in enumerate(l_set):
                st = loo_states[k]
                Gh, Gx = leave_one_out_arrays(st, inst, l)
                loo_states[k] = step_arrays(st, Gh, Gx, cfg.eta)
        # degenerate: the leave-one-out loss is identically zero, so the
        # iterates stay at their (zero) initialization
    return {
        "iters": np.arange(T + 1),
        "per_l": per_l,
        "series": per_l.max(axis=1),
        "dist_truth": dist_truth,
        "dist_initial": float(dist_truth[0]),
        "l_set": l_set,
        "degenerate": degenerate,
        "notes": [NOISE_MODEL_NOTE],
    }


def alignment_trace(inst: ProblemInstance, cfg: SolverConfig):
    """Per-iteration per-source alignment scalars and distances to truth.

    Runs the solver recording every iteration and reads alpha_i^t and
    dist(z_i^t, z'_i) off each record's alignment; returns (alphas,
    source_dists) with shape (T+1, s) each.
    """
    truth = inst.truth
    if truth is None:
        raise ValueError("alignment_trace requires ground truth")
    _, records = run(inst, dataclasses.replace(cfg, record_every=1))
    alphas = np.array([rec.alignment.alpha for rec in records])
    errors = np.array([rec.alignment.error for rec in records])
    return alphas, np.sqrt(np.maximum(errors / truth.d, 0.0))


def alignment_ratio_series(alphas: np.ndarray, source_dists: np.ndarray | None = None) -> dict:
    """Per-iteration alignment contraction |alpha_i^{t+1}/alpha_i^t - 1|.

    With per-source distances supplied, also reports the quotient of each
    ratio by dist(z_i^t, z'_i) so a bounding constant can be read off.
    """
    alphas = np.asarray(alphas)
    if alphas.ndim != 2 or alphas.shape[0] < 2:
        raise ValueError("alphas must be (T+1, s) with at least two iterations")
    ratios = np.abs(alphas[1:] / alphas[:-1] - 1.0)
    out = {"ratios": ratios, "max_series": ratios.max(axis=1)}
    if source_dists is not None:
        d = np.asarray(source_dists)[:-1]
        quot = np.full_like(ratios, np.inf)
        np.divide(ratios, d, out=quot, where=d > 0)
        quot[(d == 0) & (ratios == 0)] = 0.0
        out["quotients"] = quot
    return out


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


def make_report(check: str, params: dict, seed: int, metrics_out: dict, passed: bool, notes=()) -> dict:
    """Normalized report dict; the advisory noise-model note always rides along."""
    all_notes = list(notes)
    if NOISE_MODEL_NOTE not in all_notes:
        all_notes.append(NOISE_MODEL_NOTE)
    return {
        "check": check,
        "params": _jsonable(params),
        "seed": int(seed),
        "metrics": _jsonable(metrics_out),
        "pass": bool(passed),
        "notes": all_notes,
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
    metrics_out = {k: v for k, v in fields.items() if k not in ("passed", "delta", "notes")}
    return params, metrics_out, rep.passed, rep.notes


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
    return params, metrics_out, passed, res["notes"]


def _spectral(dims, kappa, sigma, scfg, seed, *, m_sweep=(400, 1600, 6400), n_trials=200):
    """Back-projection spread at each m of m_sweep (dims.m is not used);
    passes when the mean deviation falls strictly as m grows.
    """
    table = []
    for m in m_sweep:
        rep = spectral_concentration(Dimensions(s=dims.s, m=m, K=dims.K), sigma, n_trials, seed)
        table.append(
            {"m": m, "mean_deviation": rep["mean_deviation"], "max_deviation": rep["max_deviation"]}
        )
    means = [row["mean_deviation"] for row in table]
    passed = all(b < a for a, b in zip(means, means[1:]))
    params = {"dims": {"s": dims.s, "K": dims.K}, "m_sweep": m_sweep, "sigma": sigma,
              "n_trials": n_trials}
    return params, {"table": table}, passed, ()


# verify_* experiment -> (report name, check). A check takes the scalar setting
# (dims, kappa, sigma, solver config) and the seed, and returns the report's
# params, metrics, pass flag and notes. Its keyword-only parameters are the
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
    params, metrics_out, passed, notes = check(dims, kappa, sigma, scfg, seed, **extras)
    return make_report(name, params, seed, metrics_out, passed, notes)
