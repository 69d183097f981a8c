"""Independent reference implementations for the test suite.

Everything here favors obviousness over speed: plain Python loops and
brute-force searches, sharing nothing with the package internals except
the public data containers. Disagreement between these and the library
is a library bug by definition.
"""

from __future__ import annotations

import numpy as np

from demix import DemixState


# ---------------------------------------------------------------- sampling


def box_muller_pairs(gen, n):
    """The unblocked Box-Muller formula: n uniforms u1, then n uniforms u2."""
    u1 = gen.random(n)
    u2 = gen.random(n)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    return r * np.cos(theta), r * np.sin(theta)


def complex_standard_normal(gen, shape):
    """CN(0, 1) draw of the given shape from the unblocked formula."""
    re, im = box_muller_pairs(gen, int(np.prod(shape)))
    return ((re + 1j * im) / np.sqrt(2)).reshape(shape)


# ---------------------------------------------------------------- forward map


def naive_forward(H, X, A, B):
    """y_j = sum_i (b_j^* h_i)(x_i^* a_ij), one scalar at a time."""
    s, m, _ = A.shape
    out = np.zeros(m, dtype=complex)
    for j in range(m):
        for i in range(s):
            out[j] += np.vdot(B[j], H[i]) * np.vdot(X[i], A[i, j])
    return out


def naive_loss(state, inst) -> float:
    r = naive_forward(state.h, state.x, inst.A, inst.B) - inst.y
    return float(np.sum(np.abs(r) ** 2))


def naive_gradient(state, inst):
    """Conjugate-coordinate gradient pair (Gh, Gx), plain loops."""
    return _loop_gradient(state.h, state.x, inst.A, inst.B, inst.y)


def _loop_gradient(H, X, A, B, y):
    s, m, K = A.shape
    r = naive_forward(H, X, A, B) - y
    Gh = np.zeros((s, K), dtype=complex)
    Gx = np.zeros((s, K), dtype=complex)
    for i in range(s):
        for j in range(m):
            Gh[i] += r[j] * np.vdot(A[i, j], X[i]) * B[j]
            Gx[i] += np.conj(r[j]) * np.vdot(B[j], H[i]) * A[i, j]
    return Gh, Gx


def naive_backprojection(A, B, y):
    """M_i = sum_j y_j b_j a_ij^* as explicit rank-one sums."""
    s, m, K = A.shape
    out = np.zeros((s, K, K), dtype=complex)
    for i in range(s):
        for j in range(m):
            out[i] += y[j] * np.outer(B[j], np.conj(A[i, j]))
    return out


def reference_descent(A, B, y, eta, iters):
    """The iterates (h, x) of a spectral start and iters scaled steps on
    explicit arrays, for any B.

    Source i starts at sqrt(sigma1) (u, v) from the SVD of
    naive_backprojection's M_i, rotated so the largest-magnitude entry of u
    (the first on ties) is real and positive. A step moves h_i by
    eta / ||x_i||^2 and x_i by eta / ||h_i||^2 times the plain-loop gradient
    at the pre-update iterate.
    """
    s, _, K = A.shape
    H = np.empty((s, K), dtype=complex)
    X = np.empty((s, K), dtype=complex)
    for i, M in enumerate(naive_backprojection(A, B, y)):
        U, S, Vh = np.linalg.svd(M)
        rot = np.exp(-1j * np.angle(U[np.argmax(np.abs(U[:, 0])), 0]))
        H[i] = np.sqrt(S[0]) * U[:, 0] * rot
        X[i] = np.sqrt(S[0]) * np.conj(Vh[0]) * rot
    out = [(H, X)]
    for _ in range(iters):
        Gh, Gx = _loop_gradient(H, X, A, B, y)
        nh = np.sum(np.abs(H) ** 2, axis=1)
        nx = np.sum(np.abs(X) ** 2, axis=1)
        H, X = H - (eta / nx)[:, None] * Gh, X - (eta / nh)[:, None] * Gx
        out.append((H, X))
    return out


def clean_residuals(state, inst) -> np.ndarray:
    """Noise-free residual sum_k b_j^*(h_k x_k^* - h'_k x'_k^*) a_kj."""
    if inst.truth is None:
        raise ValueError("clean residuals need the ground truth attached")
    fwd = naive_forward(state.h, state.x, inst.A, inst.B)
    fwd_true = naive_forward(inst.truth.h, inst.truth.x, inst.A, inst.B)
    return fwd - fwd_true


def clean_loss(state, inst) -> float:
    r = clean_residuals(state, inst)
    return float(np.real(np.vdot(r, r)))


def wirtinger_hessian(state, inst, i) -> np.ndarray:
    """Clean Wirtinger Hessian of source i in u = (dh_i, dx_i, conj dh_i, conj dx_i).

    Along a direction in source i alone, f(z + t d) = f(z) + 2 t Re<g, d>
    + (t^2/2) u^* H u + O(t^3) for the clean loss f. H is the Hermitian
    [[C, E], [E^*, conj(C)]] with C = [[C1, C2], [C2^*, C3]] and
    E = [[0, E1], [E1^T, 0]], summed as rank-one terms over j:
    C1 = sum_j |a_ij^* x_i|^2 b_j b_j^*
    C2 = sum_j c_j b_j a_ij^*   (c = clean residual)
    C3 = sum_j |b_j^* h_i|^2 a_ij a_ij^*
    E1 = sum_j (b_j b_j^* h_i)(a_ij a_ij^* x_i)^T   (plain transpose)
    """
    c = clean_residuals(state, inst)
    h, x = state.h[i], state.x[i]
    K = h.size
    C1, C2, C3, E1 = (np.zeros((K, K), dtype=complex) for _ in range(4))
    for j, (b, a) in enumerate(zip(inst.B, inst.A[i])):
        bh, ax = np.vdot(b, h), np.vdot(a, x)
        C1 += abs(ax) ** 2 * np.outer(b, np.conj(b))
        C2 += c[j] * np.outer(b, np.conj(a))
        C3 += abs(bh) ** 2 * np.outer(a, np.conj(a))
        E1 += np.outer(b * bh, a * ax)
    Z = np.zeros((K, K))
    C = np.block([[C1, C2], [C2.conj().T, C3]])
    E = np.block([[Z, E1], [E1.T, Z]])
    return np.block([[C, E], [E.conj().T, np.conj(C)]])


def real_to_wirtinger(K) -> np.ndarray:
    """The (4K, 4K) map T from v = (Re dh, Im dh, Re dx, Im dx) to
    u = (dh, dx, conj dh, conj dx); T / sqrt(2) is unitary."""
    I, Z = np.eye(K), np.zeros((K, K))
    return np.block(
        [[I, 1j * I, Z, Z], [Z, Z, I, 1j * I], [I, -1j * I, Z, Z], [Z, Z, I, -1j * I]]
    )


# --------------------------------------------------- population Hessian


def population_hessian(truth) -> np.ndarray:
    """Design expectation of the clean Wirtinger Hessian at the truth.

    Written entry by entry from the closed form for unit-norm sources, as a
    (4sK) x (4sK) matrix. Coordinate (i, part, k) sits at 4Ki + Kpart + k,
    with parts (h_i, x_i, conj h_i, conj x_i). The diagonal is 1. The only
    other entries pair h with conj x and x with conj h within one source:
    [h_k, conj x_l] = h_k x_l and [x_k, conj h_l] = x_k h_l, and their
    Hermitian mirrors. Other norms are rejected: there the diagonal blocks
    would be ||x_i||^2 I and ||h_i||^2 I, not I.
    """
    s, K = truth.h.shape
    norms = np.linalg.norm(np.concatenate([truth.h, truth.x]), axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError(f"population_hessian needs unit-norm sources: {norms}")
    H = np.zeros((4 * s * K, 4 * s * K), dtype=complex)

    def at(i, part, k):
        return 4 * K * i + K * part + k

    for i in range(s):
        h, x = truth.h[i], truth.x[i]
        hx = h[:, None] * x[None, :]
        xh = x[:, None] * h[None, :]
        for k in range(K):
            for part in range(4):
                H[at(i, part, k), at(i, part, k)] = 1.0
            for l in range(K):
                H[at(i, 0, k), at(i, 3, l)] = hx[k, l]
                H[at(i, 1, k), at(i, 2, l)] = xh[k, l]
                H[at(i, 3, l), at(i, 0, k)] = np.conj(hx[k, l])
                H[at(i, 2, l), at(i, 1, k)] = np.conj(xh[k, l])
    return H


# ------------------------------------------------------ check_rsc's points


def rsc_points(inst, n_points, delta, seed, *, budget=10_000, c_a=6.0, c_b=1.0):
    """check_rsc's sampled points, weights and failure count, from its docstring.

    Points come first, then weights. Per point, per source, h_i is drawn and
    then x_i, each a uniform draw in the l2 ball of radius rho = delta /
    (kappa sqrt(s)) around the truth's vector: d ~ CN(0, I_K), then one
    uniform u, and the candidate is center + rho u^(1/(2K)) d / ||d||. A zero
    d draws no u and keeps the previous candidate. A candidate that breaks
    its own side condition is redrawn, all points sharing `budget` redraws;
    with none left it is kept and counted as a failure. The side conditions
    are max_j |b_j^* h_i| <= 2 c_b mu log^2(m) ||h'_i|| / sqrt(m) and
    max_j |a_ij^* (x_i - x'_i)| <= 2 c_a ||x'_i|| / (sqrt(s) log^{3/2} m),
    with mu the smallest such that |b_j^* h'_i| <= mu ||h'_i|| / sqrt(m).
    Then the (n_points, s, 2) weights are uniform on [max(1/kappa - rho,
    1e-3/kappa), 1/kappa + rho). Draws come from the Philox stream keyed by
    (seed, 4). Returns ([(h, x)] per point, weights, failures).
    """
    truth = inst.truth
    s, K = truth.h.shape
    m = inst.dims.m
    Bh = np.conj(inst.B)  # row j is b_j^*
    nh = np.linalg.norm(truth.h, axis=1)
    nx = np.linalg.norm(truth.x, axis=1)
    mu = np.sqrt(m) * max(np.max(np.abs(Bh @ truth.h[i])) / nh[i] for i in range(s))
    lim_h = 2 * c_b * mu * np.log(m) ** 2 / np.sqrt(m) * nh
    lim_x = 2 * c_a / (np.sqrt(s) * np.log(m) ** 1.5) * nx
    kappa = truth.kappa
    rho = delta / (kappa * np.sqrt(s))
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 4], dtype=np.uint64)))
    failures = 0
    points = []
    for _ in range(n_points):
        h = truth.h.copy()
        x = truth.x.copy()
        for i in range(s):
            for side in ("h", "x"):
                center = truth.h[i] if side == "h" else truth.x[i]
                v = center
                while True:
                    d = complex_standard_normal(gen, (K,))
                    nd = np.linalg.norm(d)
                    if nd > 0:
                        r = rho * gen.random() ** (1.0 / (2 * K))
                        v = center + (r / nd) * d
                        if side == "h":
                            ok = np.max(np.abs(Bh @ v)) <= lim_h[i]
                        else:
                            ok = np.max(np.abs(np.conj(inst.A[i]) @ (v - center))) <= lim_x[i]
                        if ok:
                            break
                    if budget == 0:
                        failures += 1
                        break
                    budget -= 1
                if side == "h":
                    h[i] = v
                else:
                    x[i] = v
        points.append((h, x))
    lo = max(1.0 / kappa - rho, 1e-3 / kappa)
    hi = 1.0 / kappa + rho
    return points, lo + (hi - lo) * gen.random((n_points, s, 2)), failures


# ------------------------------------------------------- finite differences


def perturbed(state, dh, dx, t: float) -> DemixState:
    """state + t * (dh, dx) with complex (s, K) direction arrays."""
    return DemixState(h=state.h + t * dh, x=state.x + t * dx)


def fd_directional(fun, state, dh, dx, t: float) -> float:
    """Central first difference of fun along the direction."""
    return (fun(perturbed(state, dh, dx, t)) - fun(perturbed(state, dh, dx, -t))) / (
        2.0 * t
    )


def fd_second_directional(fun, state, dh, dx, t: float) -> float:
    """Central second difference: approximates the full second-order term."""
    f0 = fun(state)
    return (
        fun(perturbed(state, dh, dx, t)) + fun(perturbed(state, dh, dx, -t)) - 2.0 * f0
    ) / t**2


def fd_real_gradient(fun, state, step: float):
    """Gradient of fun over the real parameterization, central differences.

    Returns four (s, K) real arrays: d/dRe(h), d/dIm(h), d/dRe(x), d/dIm(x).
    """
    s, K = state.h.shape
    out = [np.zeros((s, K)) for _ in range(4)]
    for i in range(s):
        for k in range(K):
            for slot, (which, delta) in enumerate(
                [("h", 1.0), ("h", 1.0j), ("x", 1.0), ("x", 1.0j)]
            ):
                dh = np.zeros((s, K), dtype=complex)
                dx = np.zeros((s, K), dtype=complex)
                (dh if which == "h" else dx)[i, k] = delta
                out[slot][i, k] = fd_directional(fun, state, dh, dx, step)
    return out


# ------------------------------------------------------------ alignment oracle


def align_objective(alpha: complex, h, x, h_ref, x_ref) -> float:
    """g(alpha) = ||h/conj(alpha) - h_ref||^2 + ||alpha x - x_ref||^2."""
    a = complex(alpha)
    return float(
        np.linalg.norm(h / np.conj(a) - h_ref) ** 2 + np.linalg.norm(a * x - x_ref) ** 2
    )


def align_source_unit(h, x, h_ref, x_ref) -> complex:
    """Phase-only minimizer: alpha with |alpha| = 1.

    Expanding the constrained objective leaves -2 Re(exp(i theta)(p + q))
    to maximize, with p = h_ref^* h and q = x_ref^* x, so
    alpha = conj(p + q)/|p + q| (alpha = 1 when p + q = 0).
    """
    if np.linalg.norm(h) == 0 or np.linalg.norm(x) == 0:
        raise ValueError("align_source_unit requires nonzero h and x")
    w = np.vdot(h_ref, h) + np.vdot(x_ref, x)
    if abs(w) == 0:
        return complex(1.0)
    return complex(np.conj(w) / abs(w))


def grid_align(h, x, h_ref, x_ref, rounds: int = 4):
    """Global minimum of the per-source alignment objective by 2-D search.

    Scans alpha = beta exp(i theta) on a coarse log-magnitude x phase grid,
    then re-grids around the winner. Evaluates the objective in its raw
    vector form so nothing is shared with the library's scalar reduction.
    Returns (alpha, objective value).
    """
    h = np.asarray(h)
    x = np.asarray(x)
    h_ref = np.asarray(h_ref)
    x_ref = np.asarray(x_ref)

    def value(alpha_grid):
        a = alpha_grid[:, None]
        left = h[None, :] / np.conj(a) - h_ref[None, :]
        right = a * x[None, :] - x_ref[None, :]
        return np.sum(np.abs(left) ** 2, axis=1) + np.sum(np.abs(right) ** 2, axis=1)

    log_lo, log_hi = -3.0, 3.0
    th_lo, th_hi = -np.pi, np.pi
    best_alpha, best_val = 1.0 + 0j, value(np.array([1.0 + 0j]))[0]
    for _ in range(rounds):
        betas = np.logspace(log_lo, log_hi, 181)
        thetas = np.linspace(th_lo, th_hi, 181)
        alphas = (betas[:, None] * np.exp(1j * thetas[None, :])).ravel()
        vals = value(alphas)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_alpha = alphas[k]
        ib, it = divmod(k, thetas.size)
        span_b = (log_hi - log_lo) / 180.0
        span_t = (th_hi - th_lo) / 180.0
        center_b = np.log10(betas[ib])
        log_lo, log_hi = center_b - 2 * span_b, center_b + 2 * span_b
        th_lo, th_hi = thetas[it] - 2 * span_t, thetas[it] + 2 * span_t

    # compass-search polish in (log beta, theta): the zoom can drift along a
    # flat valley, and a pattern search walks the rest of the way down
    lb = float(np.log10(np.abs(best_alpha)))
    th = float(np.angle(best_alpha))

    def point(lb_, th_):
        return float(value(np.array([10.0**lb_ * np.exp(1j * th_)]))[0])

    cur = point(lb, th)
    step = 1e-2
    while step > 1e-13:
        for dlb, dth in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = point(lb + dlb, th + dth)
            if cand < cur:
                lb, th, cur = lb + dlb, th + dth, cand
                break
        else:
            step /= 2.0
    return 10.0**lb * np.exp(1j * th), cur


# ------------------------------------------------------ 50-digit arithmetic
#
# mpmath is not a declared test dependency: tests that use these call
# pytest.importorskip("mpmath") first. Every float input is converted
# exactly, so the results are the true values at the given iterates.


def _mp_vec(mp, v):
    return [mp.mpc(complex(z).real, complex(z).imag) for z in np.ravel(v)]


def _mp_vdot(mp, a, b):
    return mp.fsum(mp.conj(ai) * bi for ai, bi in zip(a, b))


def _mp_norm2(mp, a):
    return mp.fsum(abs(ai) ** 2 for ai in a)


def mp_align(h, x, h_ref, x_ref, beta0: float, dps: int = 50):
    """The root of phi'(beta) nearest beta0 to dps digits, as an mpc alpha.

    phi(beta) = ||h||^2/beta^2 + ||x||^2 beta^2 - 2|w|, w = p/beta + q beta,
    is the alignment objective with the optimal phase conj(w)/|w| put in.
    beta0 must lie in the basin of the wanted root; global optimality is
    checked separately against grid_align. With p = q = 0, phi is
    nh/beta^2 + nx beta^2 and alpha is its minimizer (nh/nx)^(1/4).
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        h, x, h_ref, x_ref = (_mp_vec(mp, v) for v in (h, x, h_ref, x_ref))
        nh, nx = _mp_norm2(mp, h), _mp_norm2(mp, x)
        p, q = _mp_vdot(mp, h_ref, h), _mp_vdot(mp, x_ref, x)
        if p == 0 and q == 0:
            return mp.mpc(mp.root(nh / nx, 4))

        def dphi(b):
            w = p / b + q * b
            dw = q - p / b**2
            return -2 * nh / b**3 + 2 * nx * b - 2 * mp.re(mp.conj(w) * dw) / abs(w)

        b = mp.findroot(dphi, mp.mpf(beta0))
        w = p / b + q * b
        return b * mp.conj(w) / abs(w)


def mp_record_metrics(state, truth, A, B, betas0, dps: int = 50):
    """(relative_error, dist, inc_a, inc_b) of one iterate, to dps digits.

    Follows the definitions in demix.metrics term by term: K x K product
    differences, the aligned objective at the mp_align root (started from
    betas0[i]) over d_i = ||h'_i||^2 + ||x'_i||^2, and the design inner
    products of the aligned iterate. Returns floats.
    """
    import mpmath

    mp = mpmath.mp
    s, m, _ = A.shape
    with mpmath.workdps(dps):
        num = den = g_sum = mp.mpf(0)
        inc_a = inc_b = mp.mpf(0)
        Bc = [_mp_vec(mp, B[j]) for j in range(m)]
        for i in range(s):
            h, x = _mp_vec(mp, state.h[i]), _mp_vec(mp, state.x[i])
            u, v = _mp_vec(mp, truth.h[i]), _mp_vec(mp, truth.x[i])
            nu, nv = _mp_norm2(mp, u), _mp_norm2(mp, v)
            num += mp.sqrt(
                mp.fsum(
                    abs(hk * mp.conj(xl) - uk * mp.conj(vl)) ** 2
                    for hk, uk in zip(h, u)
                    for xl, vl in zip(x, v)
                )
            )
            den += mp.sqrt(nu * nv)
            alpha = mp_align(state.h[i], state.x[i], truth.h[i], truth.x[i], betas0[i], dps)
            ha = [hk / mp.conj(alpha) for hk in h]
            dx = [alpha * xk - vk for xk, vk in zip(x, v)]
            g = _mp_norm2(mp, [a - b for a, b in zip(ha, u)]) + _mp_norm2(mp, dx)
            g_sum += g / (nu + nv)
            for j in range(m):
                inc_a = max(inc_a, abs(_mp_vdot(mp, _mp_vec(mp, A[i, j]), dx)) / mp.sqrt(nv))
                inc_b = max(inc_b, abs(_mp_vdot(mp, Bc[j], ha)) / mp.sqrt(nu))
        return tuple(float(v) for v in (num / den, mp.sqrt(g_sum), inc_a, inc_b))


def mp_incoherence_a(A, D, x_ref, dps: int = 50) -> float:
    """max_{i,j} |a_ij^* d_i| / ||x'_i|| for given differences D, to dps digits."""
    import mpmath

    mp = mpmath.mp
    s, m, _ = A.shape
    with mpmath.workdps(dps):
        out = mp.mpf(0)
        for i in range(s):
            d, xn = _mp_vec(mp, D[i]), mp.sqrt(_mp_norm2(mp, _mp_vec(mp, x_ref[i])))
            for j in range(m):
                out = max(out, abs(_mp_vdot(mp, _mp_vec(mp, A[i, j]), d)) / xn)
        return float(out)


# ----------------------------------------------------------------- regression


def lsq_slope(xs, ys) -> float:
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


def r_squared(xs, ys) -> float:
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    coef = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coef, xs)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def iters_to(records, tol: float):
    """First recorded iteration whose relative error is <= tol, else None."""
    for r in records:
        if r.relative_error is not None and r.relative_error <= tol:
            return r.iter
    return None
