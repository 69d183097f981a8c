"""Acceptance gate: one test per shipped performance/correctness criterion.

Each test prints its measurements before asserting at the pinned tolerance,
so `pytest -v` yields one pass/fail line per criterion and any failure is
self-describing.
"""

import json

import numpy as np

from demix import _rng
from demix.cli import main as cli_main
from demix.metrics import align_source
from demix.objective import gradient_arrays, loss
from demix.problem import (
    Dimensions,
    load_instance,
    make_instance,
    sample_ground_truth,
    save_instance,
    snr_db,
)
from demix.solver import DivergenceError, SolverConfig, run
from demix.verify import check_rsc, leave_one_out_trajectories, spectral_concentration

from conftest import FIG1A_SEEDS, random_state, trial_mean_error
from oracles import (
    align_objective,
    fd_real_gradient,
    grid_align,
    iters_to,
    lsq_slope,
    population_hessian,
    r_squared,
)


def test_criterion_01_noiseless_runs_converge_linearly_to_1e6(benchmark_runs):
    reached = {}
    fits = {}
    for seed in FIG1A_SEEDS:
        recs = benchmark_runs[seed]
        reached[seed] = iters_to(recs, 1e-6)
        pts = [
            (r.iter, np.log10(r.relative_error))
            for r in recs
            if r.relative_error is not None and 0.0 < r.relative_error <= 1e-1
        ]
        fits[seed] = r_squared([p[0] for p in pts], [p[1] for p in pts])
        final = recs[-1].relative_error
        print(
            f"seed {seed}: iters-to-1e-6 {reached[seed]}, "
            f"final {final:.3e} at iter {recs[-1].iter}, R^2 {fits[seed]:.5f}"
        )
    low_fit = {s: v for s, v in fits.items() if v < 0.99}
    assert not low_fit, f"log relative error vs iteration not linear (R^2 < 0.99): {low_fit}"
    missing = sorted(s for s, it in reached.items() if it is None)
    assert not missing, (
        f"relative error never reached 1e-6 within 500 iterations on seeds {missing}"
    )


def test_criterion_02_iterations_to_tolerance_insensitive_to_size(dimension_pair_runs):
    iters = {K: iters_to(recs, 1e-5) for K, recs in dimension_pair_runs.items()}
    print(f"iterations to 1e-5: K=50 -> {iters[50]}, K=100 -> {iters[100]}")
    assert iters[50] is not None and iters[100] is not None
    spread = abs(iters[50] - iters[100]) / min(iters[50], iters[100])
    print(f"relative spread {spread:.4f} (allowed < 0.25)")
    assert spread < 0.25


def test_criterion_03_condition_number_slows_convergence():
    table = {}
    for seed in (1, 2, 3):
        row = []
        for kappa in (1.0, 2.0, 3.0):
            inst = make_instance(
                Dimensions(s=2, m=800, K=50), kappa=kappa, sigma=0.0, seed=seed
            )
            try:
                _, recs = run(inst, SolverConfig(eta=0.5, max_iters=200, stop_tol=1e-4))
                row.append(iters_to(recs, 1e-4))
            except DivergenceError as ex:
                row.append(f"diverged@{ex.iteration}")
        table[seed] = row
        print(f"seed {seed}: iters to 1e-4 across condition numbers 1,2,3 -> {row}")
    bad = {
        seed: row
        for seed, row in table.items()
        if not (
            all(isinstance(v, int) for v in row) and row[0] < row[1] < row[2]
        )
    }
    assert not bad, (
        f"iterations-to-1e-4 not strictly increasing in the condition number: {bad}"
    )


def test_criterion_04_final_error_scales_inversely_with_snr():
    pts = []
    for sigma in (1e-3, 1e-2, 1e-1):
        for seed in (1, 2, 3):
            inst = make_instance(
                Dimensions(s=3, m=2400, K=16), kappa=1.0, sigma=sigma, seed=seed
            )
            _, recs = run(inst, SolverConfig(eta=0.1, max_iters=300, record_every=50))
            pts.append((snr_db(inst.y, inst.e), np.log10(recs[-1].relative_error)))
    slope = lsq_slope([p[0] for p in pts], [p[1] for p in pts])
    print(f"slope of log10(final relative error) vs SNR(dB): {slope:.5f}")
    assert -0.05 * 1.15 <= slope <= -0.05 * 0.85


def test_criterion_05_incoherence_measures_stay_bounded():
    inst = make_instance(Dimensions(s=10, m=1000, K=20), kappa=1.0, sigma=0.1, seed=1)
    _, recs = run(inst, SolverConfig(eta=0.1, max_iters=300, record_every=1))
    inc_a = np.array([r.incoherence_a for r in recs])
    inc_b = np.array([r.incoherence_b for r in recs])
    ratio_a = inc_a.max() / inc_a[:5].max()
    ratio_b = inc_b.max() / inc_b[:5].max()
    print(f"whole-run max over first-5-iteration max: a {ratio_a:.4f}, b {ratio_b:.4f}")
    assert ratio_a <= 3.0
    assert ratio_b <= 3.0


def test_criterion_06_gradient_matches_finite_differences():
    gen = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        s = int(gen.integers(1, 4))
        K = int(gen.integers(1, 5))
        m = int(gen.integers(K, 13))
        sigma = float(gen.choice([0.0, 0.3]))
        inst = make_instance(
            Dimensions(s=s, m=m, K=K), kappa=1.0, sigma=sigma, seed=int(gen.integers(1 << 30))
        )
        st = random_state(inst.dims, gen)
        scale = max(np.max(np.abs(st.h)), np.max(np.abs(st.x)), 1.0)
        dre_h, dim_h, dre_x, dim_x = fd_real_gradient(
            lambda state: loss(state, inst), st, step=1e-5 * scale
        )
        Gh, Gx = gradient_arrays(st, inst)
        got = np.concatenate([dre_h.ravel(), dim_h.ravel(), dre_x.ravel(), dim_x.ravel()])
        want = 2.0 * np.concatenate(
            [Gh.real.ravel(), Gh.imag.ravel(), Gx.real.ravel(), Gx.imag.ravel()]
        )
        rel = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-9)
        worst = max(worst, rel)
    print(f"worst finite-difference relative error over 20 instances: {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_07_alignment_never_beaten_and_matches_grid():
    gen = np.random.default_rng(7)
    worst_gap = 0.0
    beaten = 0
    for _ in range(100):
        K = 5
        h = gen.standard_normal(K) + 1j * gen.standard_normal(K)
        x = gen.standard_normal(K) + 1j * gen.standard_normal(K)
        hr = gen.standard_normal(K) + 1j * gen.standard_normal(K)
        xr = gen.standard_normal(K) + 1j * gen.standard_normal(K)
        alpha = align_source(h, x, hr, xr)
        got = align_objective(alpha, h, x, hr, xr)
        _, want = grid_align(h, x, hr, xr)
        worst_gap = max(worst_gap, abs(got - want))
        for eps in np.geomspace(1e-6, 1e-1, 10):
            for _ in range(100):
                d = eps * (gen.standard_normal() + 1j * gen.standard_normal())
                if align_objective(alpha * (1 + d), h, x, hr, xr) < got - 1e-12:
                    beaten += 1
    print(f"worst |aligned objective - grid oracle| {worst_gap:.3e}; beaten {beaten}/100000")
    assert worst_gap <= 1e-9
    assert beaten == 0


def test_criterion_08_population_curvature_norm_is_one_plus_sources():
    norms = {}
    for s in (1, 2, 3):
        truth = sample_ground_truth(Dimensions(s=s, m=3, K=3), 1.0, s + 10)
        H = population_hessian(truth)
        norms[s] = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        print(f"s={s}: dense operator norm {norms[s]:.12f}, asserted value {1 + s}")
    bad = {s: n for s, n in norms.items() if abs(n - (1 + s)) > 1e-10}
    assert not bad, f"operator norm differs from 1+s: {bad}"


def test_criterion_09_backprojection_concentrates_with_measurements(backprojection_log):
    means = []
    worst_z = 0.0
    for m in (400, 1600, 6400):
        dims = Dimensions(s=2, m=m, K=8)
        backprojection_log.clear()
        means.append(float(spectral_concentration(dims, 0.0, 200, 7).mean()))
        err, se = trial_mean_error(np.array(backprojection_log), sample_ground_truth(dims, 1.0, 7))
        worst_z = max(worst_z, float((err / np.where(se > 0, se, 1.0)).max()))
    print(f"mean spectral deviations over m=400,1600,6400: {[f'{v:.4f}' for v in means]}")
    print(f"worst entrywise standard-error multiple of the trial mean: {worst_z:.2f}")
    assert means[0] > means[1] > means[2]
    assert worst_z <= 5.0


def test_criterion_10_sampled_curvature_bounds_near_truth():
    inst = make_instance(Dimensions(s=1, m=6400, K=8), kappa=1.0, sigma=0.0, seed=7)
    rep = check_rsc(inst, n_points=50, delta=0.1, rng_seed=7)
    print(
        f"min quadratic-form ratio {rep.min_quadratic_ratio:.4f} (needs >= 1/8), "
        f"max clean-curvature norm {rep.smoothness_max:.4f} (needs <= 3), "
        f"sampling failures {rep.sampling_failures}"
    )
    assert rep.min_quadratic_ratio >= 1.0 / 8.0
    assert rep.smoothness_max <= 3.0


def test_criterion_11_leave_one_out_stays_near_main_run():
    inst = make_instance(Dimensions(s=2, m=800, K=16), kappa=1.0, sigma=0.0, seed=5)
    l_set = sorted(
        int(v) for v in _rng.stream(5, _rng.TAG_AUX).choice(800, size=8, replace=False)
    )
    out = leave_one_out_trajectories(inst, l_set, eta=0.1, max_iters=150)
    bound = 0.1 * out["dist_initial"]
    print(
        f"held-out indices {l_set}; max aligned proximity {out['series'].max():.5f}, "
        f"bound {bound:.5f} (0.1 x initial distance {out['dist_initial']:.5f})"
    )
    assert out["dist_initial"] > 0
    assert float(out["series"].max()) < bound


def test_criterion_12_reproducibility_and_round_trip(tmp_path):
    # serialization round-trips bit-exactly
    inst = make_instance(Dimensions(s=2, m=64, K=8), kappa=1.5, sigma=0.2, seed=6)
    path = tmp_path / "instance.bin"
    save_instance(inst, path)
    loaded = load_instance(path)
    for name in ("A", "B", "y", "e"):
        assert getattr(loaded, name).tobytes() == getattr(inst, name).tobytes()
    assert loaded.truth.h.tobytes() == inst.truth.h.tobytes()
    assert loaded.truth.x.tobytes() == inst.truth.x.tobytes()
    print("serialization round-trip: bit-exact")

    # identical configs reproduce byte-identical CSVs
    base = {
        "schema_version": 1,
        "experiment": "convergence",
        "dims": {"s": 1, "m": 64, "K": 4},
        "eta": 0.2,
        "max_iters": 40,
        "sigma": 0.1,
        "seeds": [1, 2],
    }
    names = [
        "trajectory_K4_s1_m64_kappa1_sigma0.1_seed1.csv",
        "trajectory_K4_s1_m64_kappa1_sigma0.1_seed2.csv",
        "summary_convergence.csv",
    ]
    outs = []
    for tag in ("first", "second"):
        cfg = dict(base, output_dir=str(tmp_path / tag))
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
        outs.append({n: (tmp_path / tag / n).read_bytes() for n in names})
    assert outs[0] == outs[1]
    print("identical configs: byte-identical trajectory and summary CSVs")
