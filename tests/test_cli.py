"""The command-line front end: configs, exit codes, artifacts, reproducibility."""

import json
import math
import subprocess
import warnings
from pathlib import Path

import pytest

from demix import cli, solver, verify
from demix.cli import _READS, CSV_HEADER, SUMMARY_HEADER, load_config, main
from demix.metrics import align_source
from demix.problem import Dimensions, load_instance, make_instance, sample_ground_truth
from demix.problem import synthesize_measurements
from demix.solver import DegenerateIterateError, SolverConfig, run
from demix.verify import NOISE_MODEL_NOTE

from conftest import fail_align_on_call
from oracles import grid_align, mp_align, mp_record_metrics

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_CONFIG = {
    "schema_version": 1,
    "experiment": "convergence",
    "dims": {"s": 2, "m": 128, "K": 6},
    "eta": 0.15,
    "max_iters": 40,
    "sigma": 0.05,
    "kappa": 1.5,
    "seeds": [11],
    "record_every": 2,
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "schema_version": 1,
        "experiment": "convergence",
        "dims": {"s": 1, "m": 64, "K": 4},
        "eta": 0.2,
        "max_iters": 60,
        "seeds": [3],
        "output_dir": str(tmp_path / "out"),
    }
    if overrides.get("experiment", "").startswith("verify_"):
        # verify_rsc and verify_spectral reject the solver keys they do not read
        del cfg["eta"], cfg["max_iters"]
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# ------------------------------------------------------------------ run


def test_run_writes_trajectory_csv(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out" / "trajectory_K4_s1_m64_kappa1_sigma0_seed3.csv"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    iters = [int(l.split(",")[0]) for l in lines[1:]]
    assert iters[0] == 0 and iters == sorted(iters)
    last = lines[-1].split(",")
    assert float(last[1]) >= 0  # loss parses
    assert all(l.endswith(",") for l in lines[1:])  # empty errors column


def test_run_divergence_exit_code_and_partial_csv(tmp_path):
    cfg = write_config(tmp_path, eta=50.0, max_iters=100, dims={"s": 2, "m": 64, "K": 8})
    assert main(["run", "--config", str(cfg)]) == 1
    out = tmp_path / "out" / "trajectory_K8_s2_m64_kappa1_sigma0_seed3.csv"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert "diverged at iteration" in lines[-1]
    assert len(lines) >= 3  # at least one recorded iterate before the error line


def test_run_alignment_failure_keeps_partial_csv(tmp_path, monkeypatch):
    # the third alignment is that of t = 3's unrecorded predecessor; the
    # record made at t = 0 still reaches the CSV before the error line
    fail_align_on_call(monkeypatch, 3)
    cfg = write_config(tmp_path, max_iters=7, record_every=3)
    assert main(["run", "--config", str(cfg)]) == 1
    out = tmp_path / "out" / "trajectory_K4_s1_m64_kappa1_sigma0_seed3.csv"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER and lines[1].startswith("0,")
    assert lines[2:] == [',,,,,,,"Eigenvalues did not converge"']


def test_golden_trajectory_is_reproduced(tmp_path):
    cfg = write_config(tmp_path, **GOLDEN_CONFIG)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out" / "trajectory_K6_s2_m128_kappa1.5_sigma0.05_seed11.csv"
    golden = DATA_DIR / "golden_trajectory.csv"
    got, want = out.read_bytes(), golden.read_bytes()
    assert got == want, _column_differences(got, want)


def _column_differences(got: bytes, want: bytes) -> str:
    """Largest relative difference per CSV column, to tell rounding from a regression."""
    rows = [
        [line.split(",") for line in blob.decode("utf-8").splitlines()]
        for blob in (got, want)
    ]
    if len(rows[0]) != len(rows[1]) or rows[0][0] != rows[1][0]:
        return f"header or row count differs: {len(rows[0])} vs {len(rows[1])} lines"
    worst = {}
    for a, b in zip(rows[0][1:], rows[1][1:]):
        for name, u, v in zip(rows[0][0], a, b):
            if u != v:
                try:
                    d = abs(float(u) - float(v)) / max(abs(float(u)), abs(float(v)))
                except ValueError:
                    d = float("inf")
                worst[name] = max(worst.get(name, 0.0), d)
    return "largest relative difference per column: " + ", ".join(
        f"{k} {worst[k]:.2e}" for k in rows[0][0] if k in worst
    )


def test_golden_trajectory_matches_high_precision_oracle():
    # the committed golden's metric columns, and align_source itself, against
    # 50-digit recomputations at the iterates of the golden config; unlike the
    # byte comparison this holds on any BLAS build
    pytest.importorskip("mpmath")
    cfg = GOLDEN_CONFIG
    inst = make_instance(
        Dimensions(**cfg["dims"]), kappa=cfg["kappa"], sigma=cfg["sigma"], seed=cfg["seeds"][0]
    )
    states = {}
    run(
        inst,
        SolverConfig(eta=cfg["eta"], max_iters=cfg["max_iters"], record_every=cfg["record_every"]),
        on_iterate=lambda t, st: states.__setitem__(t, st),
    )
    truth = inst.truth
    lines = (DATA_DIR / "golden_trajectory.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert len(lines) == 22
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        st = states[int(row["iter"])]
        betas0 = []
        for i in range(inst.dims.s):
            args = (st.h[i], st.x[i], truth.h[i], truth.x[i])
            beta0 = abs(grid_align(*args)[0])
            want = complex(mp_align(*args, beta0))
            assert abs(align_source(*args) - want) <= 1e-14 * abs(want)
            betas0.append(beta0)
        want = mp_record_metrics(st, truth, inst.A, inst.B, betas0)
        for name, w in zip(("relative_error", "dist", "inc_a", "inc_b"), want):
            assert abs(float(row[name]) - w) <= 1e-13 * w, (row["iter"], name)


def test_rerun_is_byte_identical(tmp_path):
    cfg1 = write_config(tmp_path, name="a.json", output_dir=str(tmp_path / "o1"))
    cfg2 = write_config(tmp_path, name="b.json", output_dir=str(tmp_path / "o2"))
    assert main(["run", "--config", str(cfg1)]) == 0
    assert main(["run", "--config", str(cfg2)]) == 0
    name = "trajectory_K4_s1_m64_kappa1_sigma0_seed3.csv"
    assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


# ------------------------------------------------------------ usage errors


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus=1)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("stop_tol", -1), ("kappa", 0.5), ("sigma", -1), ("eta", "abc"), ("max_iters", 1.5),
     # True == 1 in Python, and a null output_dir would name a directory "None"
     ("schema_version", True), ("output_dir", None), ("output_dir", 3), ("seeds", [])],
)
def test_bad_config_value_is_usage_error(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "config must be a JSON object"),
     ('{"schema_version": 1, "experiment": "convergence"}', "config requires dims")],
    ids=["not_an_object", "no_dims"],
)
def test_malformed_config_is_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_output_dir_that_is_a_file_is_an_io_error(tmp_path, capsys):
    (tmp_path / "out").write_text("not a directory", encoding="utf-8")
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "out") in err and err.count("\n") == 1


def test_run_rejects_dimension_lists(tmp_path):
    cfg = write_config(tmp_path, dims=[{"s": 1, "m": 64, "K": 4}, {"s": 1, "m": 128, "K": 4}])
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("verify", {"experiment": "convergence"}, "verify needs one of"),
        ("run", {"experiment": "verify_rsc", "n_points": 3}, "run takes a solver experiment"),
        ("sweep", {"experiment": "verify_rsc", "n_points": 3}, "sweep takes a solver experiment"),
    ],
    ids=["verify-convergence", "run-verify_rsc", "sweep-verify_rsc"],
)
def test_verify_rejects_solver_experiments(tmp_path, capsys, command, overrides, message):
    # verify takes only verify_* experiments, and run and sweep only the others
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"kappa": [1.0, 3.0]}, "verify takes scalar dims/kappa/sigma"),
        ({"sigma": [0.0, 0.1]}, "verify takes scalar dims/kappa/sigma"),
        ({"dims": [{"s": 1, "m": 64, "K": 4}, {"s": 1, "m": 128, "K": 4}]},
         "verify takes scalar dims/kappa/sigma"),
        ({"dims": {"s": 1, "m": 64, "K": 4, "kappa": 3}},
         "dims entries take exactly the keys s, m, K"),
        ({"dims": []}, "dims list is empty"),
        ({"dims": {"s": 1, "m": 1, "K": 1}}, "verify_rsc needs m >= 2, got m=1"),
        ({"experiment": "verify_loo", "dims": {"s": 1, "m": 1, "K": 1}},
         "verify_loo needs m >= 2, got m=1"),
        ({"experiment": "verify_loo", "l_set": [0, 64]}, "l_set entries must be < m = 64"),
        ({"experiment": "verify_loo", "n_points": 10}, "verify_loo does not read ['n_points']"),
        # the solver keys a check does not read: verify_loo's runs see no
        # truth, so they keep no metrics and never stop early
        ({"eta": 0.2}, "verify_rsc does not read ['eta']"),
        # check_rsc takes an exact minimum at each point and samples no directions
        ({"n_dirs": 20}, "unknown config keys: ['n_dirs']"),
        ({"experiment": "verify_spectral", "max_iters": 60},
         "verify_spectral does not read ['max_iters']"),
        ({"experiment": "verify_loo", "stop_tol": 1e-6}, "verify_loo does not read ['stop_tol']"),
        ({"experiment": "verify_loo", "record_every": 2},
         "verify_loo does not read ['record_every']"),
        ({"experiment": "verify_loo", "dims": {"s": 1, "m": 200, "K": 4}, "l_set": [0, 5],
          "n_holdout": 4}, "give l_set or n_holdout, not both"),
        # the default m_sweep [400, 1600, 6400] starts below K
        ({"experiment": "verify_spectral", "dims": {"s": 1, "m": 500, "K": 450}, "n_trials": 1},
         "m_sweep entries must be >= K = 450"),
        # the check passes when the deviation falls along m_sweep, so its order matters
        ({"experiment": "verify_spectral", "m_sweep": [1600, 400]},
         "m_sweep must be strictly increasing, got [1600, 400]"),
        ({"experiment": "verify_spectral", "m_sweep": [400, 400]},
         "m_sweep must be strictly increasing, got [400, 400]"),
        ({"experiment": "verify_loo", "l_set": [5, 5]}, "l_set must not repeat an index"),
    ],
    ids=["kappa_list", "sigma_list", "dims_list", "dims_unknown_key", "dims_empty",
         "rsc_m_below_2", "loo_m_below_2", "l_set_at_m", "unread_extra",
         "rsc_eta", "rsc_n_dirs", "spectral_max_iters", "loo_stop_tol", "loo_record_every",
         "l_set_with_n_holdout", "default_m_sweep_below_K", "m_sweep_decreasing",
         "m_sweep_repeated", "l_set_repeated"],
)
def test_verify_setting_usage_errors(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **dict({"experiment": "verify_rsc"}, **overrides))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["convergence", "condition_number", "noise_sweep",
                                        "incoherence", "verify_loo"])
def test_experiments_take_the_solver_keys_they_read(tmp_path, experiment):
    keys = {"eta": 0.3, "max_iters": 7, "stop_tol": 1e-9, "record_every": 2}
    if experiment == "verify_loo":
        keys = {"eta": 0.3, "max_iters": 7}
    cfg = load_config(write_config(tmp_path, experiment=experiment, **keys))
    assert {key: cfg.settings[key] for key in keys} == keys


def test_readme_key_table_matches_the_reads_table():
    # a config key added to or removed from _READS must be added to or removed
    # from README's `| Key | Default | Read by |` table, with its readers
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(n for n, line in enumerate(lines) if line.strip() == "| Key | Default | Read by |")
    table = {}
    for line in lines[start + 2:]:
        if not line.strip().startswith("|"):
            break
        cells = line.strip().strip("|").split("|")
        key, default, readers = (cell.strip().strip("`") for cell in cells)
        table[key] = (default, {r.strip().strip("`") for r in readers.split(",")})
    solver_experiments = {"convergence", "condition_number", "noise_sweep", "incoherence"}
    assert set(table) == set().union(*_READS.values())
    for key, (default, readers) in table.items():
        named = set().union(*(solver_experiments if r == "solver experiments" else {r}
                              for r in readers))
        assert named == {exp for exp, reads in _READS.items() if key in reads}, key
        try:
            documented = json.loads(default)
        except json.JSONDecodeError:
            continue  # a default described in words
        for exp in named:
            want = _READS[exp][key]
            assert documented == (list(want) if isinstance(want, tuple) else want), (key, exp)


# config key -> the library entry point that reads it, called on a small
# instance with the key set to v
_LIBRARY_READERS = {
    "eta": lambda inst, v: SolverConfig(eta=v),
    "max_iters": lambda inst, v: SolverConfig(max_iters=v),
    "stop_tol": lambda inst, v: SolverConfig(stop_tol=v),
    "record_every": lambda inst, v: SolverConfig(record_every=v),
    "kappa": lambda inst, v: sample_ground_truth(inst.dims, v, 0),
    "sigma": lambda inst, v: synthesize_measurements(inst.truth, inst.A, v, 0),
    "n_points": lambda inst, v: verify.check_rsc(inst, v, 0.1, 0),
    "delta": lambda inst, v: verify.check_rsc(inst, 1, v, 0),
    "n_trials": lambda inst, v: verify.spectral_concentration(inst.dims, 0.0, v, 0),
    "m_sweep": lambda inst, v: verify.run_check("verify_spectral", inst.dims, 1.0, 0.0, 0,
                                                m_sweep=[v], n_trials=1),
    "n_holdout": lambda inst, v: verify.run_check("verify_loo", inst.dims, 1.0, 0.0, 0,
                                                  n_holdout=v, max_iters=1),
    "loo_factor": lambda inst, v: verify.run_check("verify_loo", inst.dims, 1.0, 0.0, 0,
                                                   loo_factor=v, max_iters=1),
    "l_set": lambda inst, v: solver._check_held_out(v, inst.dims.m),
}


@pytest.mark.parametrize("key", [key for key, (_, low, _) in cli._NUMBERS.items()
                                 if math.isfinite(low)])
def test_library_refuses_what_the_cli_bound_refuses(key):
    # the CLI checks each numeric key against its _NUMBERS bound, and the
    # library entry point that reads the key holds the same bound itself
    kind, low, excluded = cli._NUMBERS[key]
    v = low if excluded else (low - 1 if kind is int else math.nextafter(low, -math.inf))
    with pytest.raises(cli.UsageError):
        cli._number(key, v, kind, low, excluded)
    inst = make_instance(Dimensions(s=1, m=16, K=2), kappa=1.0, sigma=0.0, seed=0)
    with pytest.raises(IndexError if key == "l_set" else ValueError):
        _LIBRARY_READERS[key](inst, v)


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_wrong_schema_version(tmp_path):
    cfg = write_config(tmp_path, schema_version=99)
    assert main(["run", "--config", str(cfg)]) == 2


def test_bad_experiment_name(tmp_path):
    cfg = write_config(tmp_path, experiment="mystery")
    assert main(["run", "--config", str(cfg)]) == 2


# -------------------------------------------------------------- generate


def test_generate_round_trips_bit_exact(tmp_path):
    cfg = write_config(tmp_path, sigma=0.2, kappa=1.5, seeds=[5])
    assert main(["generate", "--config", str(cfg)]) == 0
    stem = "instance_K4_s1_m64_kappa1.5_sigma0.2_seed5"
    binary = tmp_path / "out" / f"{stem}.bin"
    sidecar = tmp_path / "out" / f"{stem}.json"
    assert binary.exists() and sidecar.exists()
    loaded = load_instance(binary)
    fresh = make_instance(Dimensions(s=1, m=64, K=4), kappa=1.5, sigma=0.2, seed=5)
    for name in ("A", "B", "y", "e"):
        assert getattr(loaded, name).tobytes() == getattr(fresh, name).tobytes()
    assert loaded.truth.h.tobytes() == fresh.truth.h.tobytes()
    assert loaded.truth.x.tobytes() == fresh.truth.x.tobytes()
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    assert meta["K"] == 4 and meta["sigma"] == 0.2 and meta["seed"] == 5


def test_generate_finishes_after_a_failing_seed(tmp_path, monkeypatch, capsys):
    # an instance that cannot be made (at kappa 1e200, y overflows) fails its
    # own job: one error line and no file for it, and the other seeds are written
    make = cli.make_instance

    def fails_at_seed_2(dims, *, seed, **kw):
        if seed == 2:
            raise ValueError("y must be finite")
        return make(dims, seed=seed, **kw)

    monkeypatch.setattr(cli, "make_instance", fails_at_seed_2)
    cfg = write_config(tmp_path, seeds=[1, 2, 3])
    assert main(["generate", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    stem = "instance_K4_s1_m64_kappa1_sigma0_seed{}"
    assert err == f"error: seed 2 ({stem.format(2)}.bin): y must be finite\n"
    assert out == "".join(f"wrote {tmp_path / 'out' / stem.format(s)}.bin\n" for s in (1, 3))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        f"{stem.format(s)}{ext}" for s in (1, 3) for ext in (".bin", ".json")
    ]


def test_generate_refuses_a_huge_kappa_in_one_line(tmp_path, capsys):
    # at kappa 1e200 the truth's scales overflow: its seed fails with one
    # stderr line and no RuntimeWarning, and the other instance is written
    cfg = write_config(tmp_path, dims={"s": 2, "m": 64, "K": 4}, kappa=[1.5, 1e200], seeds=[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["generate", "--config", str(cfg)]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    out, err = capsys.readouterr()
    assert err == (
        "error: seed 1 (instance_K4_s2_m64_kappa1e+200_sigma0_seed1.bin): "
        "truth source 1 is too large: d_1 = ||h_1||^2 + ||x_1||^2 overflows\n"
    )
    assert out == f"wrote {tmp_path / 'out' / 'instance_K4_s2_m64_kappa1.5_sigma0_seed1'}.bin\n"


# ----------------------------------------------------------------- sweep


def test_sweep_writes_summary(tmp_path):
    cfg = write_config(
        tmp_path, experiment="condition_number", kappa=[1.0, 2.0], seeds=[1, 2], max_iters=30
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    summary = tmp_path / "out" / "summary_condition_number.csv"
    lines = summary.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 5  # 2 kappas x 2 seeds
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "4" and cells[1] == "1" and cells[2] == "64"
        assert cells[7] == ""  # noiseless: no SNR column value
        assert float(cells[8]) >= 0
    # rerun reproduces the summary byte for byte
    cfg2 = write_config(
        tmp_path, name="again.json", experiment="condition_number",
        kappa=[1.0, 2.0], seeds=[1, 2], max_iters=30, output_dir=str(tmp_path / "out2"),
    )
    assert main(["sweep", "--config", str(cfg2)]) == 0
    assert (tmp_path / "out2" / "summary_condition_number.csv").read_bytes() == summary.read_bytes()


def test_sweep_finishes_after_a_failing_seed(tmp_path, monkeypatch, capsys):
    clean = write_config(tmp_path, name="clean.json", seeds=[1, 2], max_iters=30,
                         output_dir=str(tmp_path / "clean"))
    assert main(["sweep", "--config", str(clean)]) == 0
    step = solver.step_arrays
    calls = []

    def first_step_fails(*args):
        calls.append(1)
        if len(calls) == 1:
            raise DegenerateIterateError("a source has zero norm; scaled step undefined")
        return step(*args)

    monkeypatch.setattr(solver, "step_arrays", first_step_fails)
    cfg = write_config(tmp_path, seeds=[1, 2], max_iters=30)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed 1 (trajectory_K4_s1_m64_kappa1_sigma0_seed1.csv): ")
    assert err.count("\n") == 1 and "Traceback" not in err
    out, ref = tmp_path / "out", tmp_path / "clean"
    seed2 = "trajectory_K4_s1_m64_kappa1_sigma0_seed2.csv"
    assert (out / seed2).read_bytes() == (ref / seed2).read_bytes()
    failed = (out / "trajectory_K4_s1_m64_kappa1_sigma0_seed1.csv").read_text(encoding="utf-8")
    lines = failed.splitlines()
    assert lines[0] == CSV_HEADER and lines[1].startswith("0,")
    assert lines[2] == ',,,,,,,"a source has zero norm; scaled step undefined"'
    summary = (out / "summary_convergence.csv").read_text(encoding="utf-8").splitlines()
    assert len(summary) == 3 and summary[1].split(",")[6] == "1" and summary[1].endswith(",,")
    clean_summary = (ref / "summary_convergence.csv").read_text(encoding="utf-8").splitlines()
    assert summary[2] == clean_summary[2]


def test_sweep_finishes_after_a_memory_error(tmp_path, monkeypatch, capsys):
    # an instance too large to allocate fails its own job: its summary row
    # keeps the setting, leaves the result cells blank, and the summary is written
    make = cli.make_instance
    message = "Unable to allocate 7.28 TiB for an array with shape (10, 1000000000, 50)"

    def too_large_at_seed_1(dims, *, seed, **kw):
        if seed == 1:
            raise MemoryError(message)
        return make(dims, seed=seed, **kw)

    monkeypatch.setattr(cli, "make_instance", too_large_at_seed_1)
    cfg = write_config(tmp_path, seeds=[1, 2], max_iters=30)
    assert main(["sweep", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: seed 1 (trajectory_K4_s1_m64_kappa1_sigma0_seed1.csv): {message}\n"
    assert out.splitlines()[-1] == f"wrote {tmp_path / 'out' / 'summary_convergence.csv'}"
    failed = tmp_path / "out" / "trajectory_K4_s1_m64_kappa1_sigma0_seed1.csv"
    assert failed.read_text(encoding="utf-8").splitlines() == [CSV_HEADER, f',,,,,,,"{message}"']
    summary = (tmp_path / "out" / "summary_convergence.csv").read_text(encoding="utf-8")
    rows = summary.splitlines()
    assert rows[1] == "4,1,64,0.2,1.0,0.0,1,,,"
    assert rows[2].split(",")[6] == "2" and float(rows[2].split(",")[8]) >= 0


def test_sweep_leaves_snr_blank_when_the_noise_rounds_away(tmp_path):
    # at sigma = 1e-20 the noise rounds away against y, so the instance is
    # noiseless: its job runs as the sigma = 0 one and has no SNR either
    noise = make_instance(Dimensions(s=2, m=64, K=4), sigma=1e-20, seed=1).e
    assert noise.size == 64 and not noise.any()
    cfg = write_config(tmp_path, experiment="noise_sweep", dims={"s": 2, "m": 64, "K": 4},
                       sigma=[0, 1e-20, 0.1], max_iters=20, seeds=[1])
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    name = "trajectory_K4_s2_m64_kappa1_sigma{}_seed1.csv"
    assert (out / name.format("1e-20")).read_bytes() == (out / name.format("0")).read_bytes()
    summary = (out / "summary_noise_sweep.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in summary[1:]]
    assert [row[5] for row in rows] == ["0.0", "1e-20", "0.1"]
    assert [row[7] for row in rows[:2]] == ["", ""] and float(rows[2][7]) > 0
    assert rows[1][8:] == rows[0][8:]


def test_solver_keys_default_when_absent(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "experiment": "convergence", "dims": {"s": 1, "m": 64, "K": 4},
        "seeds": [3], "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 0
    summary = (tmp_path / "out" / "summary_convergence.csv").read_text(encoding="utf-8")
    row = summary.splitlines()[1].split(",")
    assert row[3] == "0.1" and row[9] == "500"  # eta and max_iters defaults
    trajectory = tmp_path / "out" / "trajectory_K4_s1_m64_kappa1_sigma0_seed3.csv"
    # header plus iterations 0..500, every one recorded
    assert len(trajectory.read_text(encoding="utf-8").splitlines()) == 502


# ---------------------------------------------------------------- verify


def test_verify_rsc_report(tmp_path):
    cfg = write_config(
        tmp_path, experiment="verify_rsc", dims={"s": 1, "m": 1600, "K": 4},
        n_points=10, delta=0.1, seeds=[7],
    )
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads(
        (tmp_path / "out" / "report_verify_rsc_seed7.json").read_text(encoding="utf-8")
    )
    assert report["check"] == "rsc"
    assert report["pass"] is True
    assert report["metrics"]["sampling_failures"] == 0
    assert NOISE_MODEL_NOTE in report["notes"]
    assert set(report) == {"check", "params", "seed", "metrics", "pass", "notes"}
    assert report["params"] == {
        "dims": {"s": 1, "m": 1600, "K": 4}, "kappa": 1.0, "sigma": 0.0, "delta": 0.1,
    }
    assert set(report["metrics"]) == {
        "n_points", "min_quadratic_ratio", "smoothness_max", "kappa", "s",
        "sampling_failures",
    }
    assert report["metrics"]["n_points"] == 10


def test_verify_job_failure_is_an_error_line(tmp_path, capsys, monkeypatch):
    # a check that raises fails its own seed only: one error line and no
    # report for it, exit code 1, and the next seed still runs
    rsc = verify.CHECKS["verify_rsc"]

    def fails_at_seed_3(dims, kappa, sigma, seed, **settings):
        if seed == 3:
            raise ValueError("no usable draw at this seed")
        return rsc(dims, kappa, sigma, seed, **settings)

    monkeypatch.setitem(verify.CHECKS, "verify_rsc", fails_at_seed_3)
    cfg = write_config(tmp_path, experiment="verify_rsc", dims={"s": 1, "m": 400, "K": 4},
                       n_points=2, seeds=[3, 4])
    assert main(["verify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: seed 3 (report_verify_rsc_seed3.json): no usable draw at this seed\n"
    )
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report_verify_rsc_seed4.json"]


def test_verify_memory_error_is_an_error_line(tmp_path, capsys, monkeypatch):
    rsc = verify.CHECKS["verify_rsc"]

    def too_large_at_seed_3(dims, kappa, sigma, seed, **settings):
        if seed == 3:
            raise MemoryError("Unable to allocate 7.28 TiB")
        return rsc(dims, kappa, sigma, seed, **settings)

    monkeypatch.setitem(verify.CHECKS, "verify_rsc", too_large_at_seed_3)
    cfg = write_config(tmp_path, experiment="verify_rsc", dims={"s": 1, "m": 400, "K": 4},
                       n_points=2, seeds=[3, 4])
    assert main(["verify", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed 3 (report_verify_rsc_seed3.json): Unable to allocate 7.28 TiB\n"
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report_verify_rsc_seed4.json"]


def test_verify_loo_divergence_is_an_error_line(tmp_path, capsys):
    cfg = write_config(
        tmp_path, experiment="verify_loo", dims={"s": 2, "m": 6, "K": 6},
        eta=0.1, max_iters=30, l_set=[0, 5], seeds=[4],
    )
    assert main(["verify", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: seed 4 (report_verify_loo_seed4.json): loss diverged at iteration "
    )
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "report_verify_loo_seed4.json").exists()


def test_verify_loo_report_pass_and_fail(tmp_path):
    cfg = write_config(
        tmp_path, experiment="verify_loo", dims={"s": 1, "m": 800, "K": 8},
        eta=0.1, max_iters=60, n_holdout=4, seeds=[3],
    )
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads(
        (tmp_path / "out" / "report_verify_loo_seed3.json").read_text(encoding="utf-8")
    )
    assert report["check"] == "loo"
    assert report["pass"] is True
    assert set(report) == {"check", "params", "seed", "metrics", "pass", "notes"}
    assert set(report["params"]) == {
        "dims", "kappa", "sigma", "eta", "max_iters", "l_set", "loo_factor",
    }
    assert report["params"]["dims"] == {"s": 1, "m": 800, "K": 8}
    assert report["params"]["loo_factor"] == 0.1
    assert set(report["metrics"]) == {"series", "dist_initial", "max_proximity"}
    assert len(report["metrics"]["series"]) == 61
    assert len(report["params"]["l_set"]) == 4
    assert report["metrics"]["max_proximity"] < 0.1 * report["metrics"]["dist_initial"]
    # a seed whose proximity exceeds the bound maps to exit code 1
    assert main(["verify", "--config", str(cfg), "--seed", "1"]) == 1
    failed = json.loads(
        (tmp_path / "out" / "report_verify_loo_seed1.json").read_text(encoding="utf-8")
    )
    assert failed["pass"] is False


def test_verify_spectral_report(tmp_path):
    cfg = write_config(
        tmp_path, experiment="verify_spectral", dims={"s": 1, "m": 64, "K": 4},
        m_sweep=[64, 256], n_trials=40, seeds=[3],
    )
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads(
        (tmp_path / "out" / "report_verify_spectral_seed3.json").read_text(encoding="utf-8")
    )
    assert report["check"] == "spectral"
    assert report["pass"] is True
    assert set(report) == {"check", "params", "seed", "metrics", "pass", "notes"}
    assert report["params"] == {
        "dims": {"s": 1, "K": 4}, "m_sweep": [64, 256], "kappa": 1.0, "sigma": 0.0,
        "n_trials": 40,
    }
    assert set(report["metrics"]) == {"table"}
    table = report["metrics"]["table"]
    assert all(set(row) == {"m", "mean_deviation", "max_deviation"} for row in table)
    assert [row["m"] for row in table] == [64, 256]
    assert table[1]["mean_deviation"] < table[0]["mean_deviation"]


def test_verify_spectral_fails_on_a_single_m(tmp_path):
    # the check asks the mean deviation to fall as m grows, which one m cannot show
    cfg = write_config(
        tmp_path, experiment="verify_spectral", dims={"s": 1, "m": 64, "K": 4},
        m_sweep=[64], n_trials=4, seeds=[3],
    )
    assert main(["verify", "--config", str(cfg)]) == 1
    report = json.loads(
        (tmp_path / "out" / "report_verify_spectral_seed3.json").read_text(encoding="utf-8")
    )
    assert report["pass"] is False
    assert [row["m"] for row in report["metrics"]["table"]] == [64]


def test_verify_spectral_draws_its_truth_at_the_config_kappa(tmp_path):
    reports = {}
    for kappa in (1, 3):
        cfg = write_config(
            tmp_path, name=f"cfg{kappa}.json", experiment="verify_spectral",
            dims={"s": 2, "m": 64, "K": 4}, kappa=kappa, m_sweep=[64, 256], n_trials=4,
            seeds=[1], output_dir=str(tmp_path / f"out{kappa}"),
        )
        assert main(["verify", "--config", str(cfg)]) == 0
        path = tmp_path / f"out{kappa}" / "report_verify_spectral_seed1.json"
        reports[kappa] = json.loads(path.read_text(encoding="utf-8"))
    assert reports[1]["params"]["kappa"] == 1.0
    assert reports[3]["params"]["kappa"] == 3.0
    assert reports[3]["metrics"]["table"] != reports[1]["metrics"]["table"]


# -------------------------------------------------------------- overrides


def test_seed_and_out_overrides(tmp_path):
    cfg = write_config(tmp_path, seeds=[3])
    other = tmp_path / "elsewhere"
    assert main(["run", "--config", str(cfg), "--seed", "5", "--out", str(other)]) == 0
    assert (other / "trajectory_K4_s1_m64_kappa1_sigma0_seed5.csv").exists()
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------- console script


def test_console_script_entry_point(tmp_path):
    cfg = write_config(tmp_path, max_iters=20)
    proc = subprocess.run(
        ["demix", "run", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert (tmp_path / "out" / "trajectory_K4_s1_m64_kappa1_sigma0_seed3.csv").exists()
