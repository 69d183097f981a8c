"""Command-line front end: instance generation, runs, sweeps, verification.

Every command reads a JSON experiment config (schema_version 1) and writes
its artifacts — binary instances with JSON sidecars, per-run trajectory
CSVs, sweep summary CSVs, verification report JSONs — into the output
directory. Identical configs reproduce byte-identical outputs. Exit codes:
0 success, 1 divergence or verification failure or I/O trouble, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _rng, verify
from .problem import Dimensions, make_instance, save_instance, snr_db
from .solver import DivergenceError, SolverConfig, run

SCHEMA_VERSION = 1
EXPERIMENTS = (
    "convergence",
    "condition_number",
    "noise_sweep",
    "incoherence",
    "verify_rsc",
    "verify_loo",
    "verify_spectral",
)
VERIFY_EXPERIMENTS = ("verify_rsc", "verify_loo", "verify_spectral")

CSV_HEADER = "iter,loss,relative_error,dist,inc_a,inc_b,max_alignment_ratio,errors"
SUMMARY_HEADER = "K,s,m,eta,kappa,sigma,seed,snr_db,final_relative_error,iters"

# Numeric config keys: key -> (type, lower bound, bound excluded). Absent keys
# take the ExperimentConfig defaults; _EXTRAS go to the verification checks.
_NUMBERS = {
    "eta": (float, 0.0, True),
    "kappa": (float, 1.0, False),
    "sigma": (float, 0.0, False),
    "max_iters": (int, 1, False),
    "seeds": (int, -math.inf, False),
    "stop_tol": (float, 0.0, False),
    "record_every": (int, 1, False),
    "n_points": (int, 1, False),
    "n_dirs": (int, 1, False),
    "delta": (float, 0.0, True),
    "n_trials": (int, 1, False),
    "m_sweep": (int, 1, False),
    "l_set": (int, 0, False),
    "n_holdout": (int, 1, False),
    "loo_factor": (float, 0.0, True),
}
_LISTS = ("kappa", "sigma", "seeds", "m_sweep", "l_set")
_EXTRAS = ("n_points", "n_dirs", "delta", "n_trials", "m_sweep", "l_set", "n_holdout", "loo_factor")
_ALLOWED_KEYS = {"schema_version", "experiment", "dims", "output_dir", *_NUMBERS}


class UsageError(ValueError):
    """Config or invocation problem; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    experiment: str
    dims: list[Dimensions]
    eta: float = 0.1
    kappa: list[float] = field(default_factory=lambda: [1.0])
    sigma: list[float] = field(default_factory=lambda: [0.0])
    max_iters: int = 500
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "out"
    stop_tol: float = 0.0
    record_every: int = 1
    extras: dict = field(default_factory=dict)


def _as_list(v):
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _number(key, v, kind=float, low=-math.inf, excluded=False):
    """v as kind within its bound; other types, and fractional ints, are rejected."""
    if (
        isinstance(v, bool)
        or not isinstance(v, (int, float))
        or (isinstance(v, float) and not math.isfinite(v))
        or (kind is int and isinstance(v, float) and not v.is_integer())
    ):
        what = "an integer" if kind is int else "a finite number"
        raise UsageError(f"{key} must be {what}, got {v!r}")
    if v < low or (excluded and v == low):
        raise UsageError(f"{key} must be {'>' if excluded else '>='} {low:g}, got {v!r}")
    return kind(v)


def _parse_dims(raw) -> list[Dimensions]:
    dims = []
    for entry in _as_list(raw):
        if not isinstance(entry, dict) or not {"s", "m", "K"} <= set(entry):
            raise UsageError(f"dims entries need keys s, m, K; got {entry!r}")
        s, m, K = (_number(f"dims {k}", entry[k], int) for k in ("s", "m", "K"))
        dims.append(Dimensions(s=s, m=m, K=K))
    if not dims:
        raise UsageError("dims list is empty")
    return dims


def load_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    """Read a config and check every field, so a bad value is a UsageError
    (exit code 2) before any job starts.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise UsageError(f"cannot read config {path}: {ex}") from ex
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {experiment!r}; valid: {EXPERIMENTS}")
    if "dims" not in raw:
        raise UsageError("config requires dims")
    try:
        dims = _parse_dims(raw["dims"])
    except ValueError as ex:
        raise UsageError(str(ex)) from ex
    values = {}
    for key, spec in _NUMBERS.items():
        if key not in raw:
            continue
        if key in _LISTS:
            values[key] = [_number(key, v, *spec) for v in _as_list(raw[key])]
            if not values[key]:
                raise UsageError(f"{key} must be nonempty")
        else:
            values[key] = _number(key, raw[key], *spec)
    if seed_override is not None:
        values["seeds"] = [int(seed_override)]
    if any(m < dims[0].K for m in values.get("m_sweep", ())):
        raise UsageError(f"m_sweep entries must be >= K = {dims[0].K}")
    if any(l >= dims[0].m for l in values.get("l_set", ())):
        raise UsageError(f"l_set entries must be < m = {dims[0].m}")
    extras = {key: values.pop(key) for key in _EXTRAS if key in values}
    return ExperimentConfig(
        experiment=experiment,
        dims=dims,
        output_dir=str(out_override if out_override is not None else raw.get("output_dir", "out")),
        extras=extras,
        **values,
    )


def _outdir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _workers() -> int:
    raw = os.environ.get("DEMIX_THREADS", "1")
    try:
        w = int(raw)
    except ValueError:
        raise UsageError(f"DEMIX_THREADS must be an integer, got {raw!r}") from None
    if w < 0:
        raise UsageError(f"DEMIX_THREADS must be >= 0, got {w}")
    return (os.cpu_count() or 1) if w == 0 else w


def _run_jobs(jobs):
    w = _workers()
    if w == 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=w) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def _stem(dims: Dimensions, kappa: float, sigma: float, seed: int) -> str:
    return f"K{dims.K}_s{dims.s}_m{dims.m}_kappa{kappa:g}_sigma{sigma:g}_seed{seed}"


def write_trajectory_csv(path, records, error_line: str | None = None) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r.iter),
                    _fmt(r.loss),
                    _fmt(r.relative_error),
                    _fmt(r.dist),
                    _fmt(r.incoherence_a),
                    _fmt(r.incoherence_b),
                    _fmt(r.max_alignment_ratio),
                    "",
                ]
            )
        )
    if error_line is not None:
        lines.append(error_line)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _combos(cfg: ExperimentConfig):
    for dims in cfg.dims:
        for kappa in cfg.kappa:
            for sigma in cfg.sigma:
                for seed in cfg.seeds:
                    yield dims, kappa, sigma, seed


def _solve_job(cfg: ExperimentConfig, dims, kappa, sigma, seed, outdir: Path):
    def job():
        inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
        scfg = SolverConfig(
            eta=cfg.eta,
            max_iters=cfg.max_iters,
            stop_tol=cfg.stop_tol,
            record_every=cfg.record_every,
        )
        path = outdir / f"trajectory_{_stem(dims, kappa, sigma, seed)}.csv"
        try:
            _, records = run(inst, scfg)
            write_trajectory_csv(path, records)
            ok, final_rel, iters = True, records[-1].relative_error, records[-1].iter
        except DivergenceError as ex:
            msg = f"diverged at iteration {ex.iteration}"
            error_line = f"{ex.iteration},{_fmt(ex.loss_value)},,,,,,{msg}"
            write_trajectory_csv(path, ex.records, error_line)
            ok, final_rel, iters = False, None, ex.iteration
        snr = None if inst.sigma == 0 else snr_db(inst.y, inst.e)
        return {
            "ok": ok,
            "dims": dims,
            "kappa": kappa,
            "sigma": sigma,
            "seed": seed,
            "snr_db": snr,
            "final_relative_error": final_rel,
            "iters": iters,
            "path": path,
        }

    return job


def cmd_generate(cfg: ExperimentConfig) -> int:
    outdir = _outdir(cfg)
    for dims, kappa, sigma, seed in _combos(cfg):
        inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
        path = outdir / f"instance_{_stem(dims, kappa, sigma, seed)}.bin"
        save_instance(inst, path)
        print(f"wrote {path}")
    return 0


def cmd_run(cfg: ExperimentConfig) -> int:
    if len(cfg.dims) > 1 or len(cfg.kappa) > 1 or len(cfg.sigma) > 1:
        raise UsageError("run takes scalar dims/kappa/sigma; use the sweep command")
    outdir = _outdir(cfg)
    dims, kappa, sigma = cfg.dims[0], cfg.kappa[0], cfg.sigma[0]
    jobs = [_solve_job(cfg, dims, kappa, sigma, seed, outdir) for seed in cfg.seeds]
    results = _run_jobs(jobs)
    for res in results:
        status = "ok" if res["ok"] else "diverged"
        print(f"wrote {res['path']} [{status}]")
    return 0 if all(r["ok"] for r in results) else 1


def cmd_sweep(cfg: ExperimentConfig) -> int:
    outdir = _outdir(cfg)
    jobs = [_solve_job(cfg, *combo, outdir) for combo in _combos(cfg)]
    results = _run_jobs(jobs)
    lines = [SUMMARY_HEADER]
    for res in results:
        dims = res["dims"]
        lines.append(
            ",".join(
                [
                    str(dims.K),
                    str(dims.s),
                    str(dims.m),
                    repr(float(cfg.eta)),
                    repr(float(res["kappa"])),
                    repr(float(res["sigma"])),
                    str(res["seed"]),
                    _fmt(res["snr_db"]),
                    _fmt(res["final_relative_error"]),
                    str(res["iters"]),
                ]
            )
        )
        status = "ok" if res["ok"] else "diverged"
        print(f"wrote {res['path']} [{status}]")
    summary = outdir / f"summary_{cfg.experiment}.csv"
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {summary}")
    return 0 if all(r["ok"] for r in results) else 1


def _verify_job(cfg: ExperimentConfig, seed: int, outdir: Path):
    dims = cfg.dims[0]
    kappa, sigma = cfg.kappa[0], cfg.sigma[0]
    ex = cfg.extras

    def job():
        if cfg.experiment == "verify_rsc":
            inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
            rep = verify.check_rsc(
                inst,
                n_points=ex.get("n_points", 50),
                n_dirs=ex.get("n_dirs", 20),
                delta=ex.get("delta", 0.1),
                rng_seed=seed,
            )
            params = {
                "dims": {"s": dims.s, "m": dims.m, "K": dims.K},
                "kappa": kappa,
                "sigma": sigma,
                "delta": rep.delta,
            }
            metrics_out = {
                "samples_tested": rep.samples_tested,
                "min_quadratic_ratio": rep.min_quadratic_ratio,
                "smoothness_max": rep.smoothness_max,
                "kappa": rep.kappa,
                "s": rep.s,
                "sampling_failures": rep.sampling_failures,
            }
            report = verify.make_report("rsc", params, seed, metrics_out, rep.passed, rep.notes)
        elif cfg.experiment == "verify_loo":
            inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
            scfg = SolverConfig(eta=cfg.eta, max_iters=cfg.max_iters)
            if "l_set" in ex:
                l_set = ex["l_set"]
            else:
                gen = _rng.stream(seed, _rng.TAG_AUX)
                count = min(ex.get("n_holdout", 8), dims.m)
                l_set = sorted(int(v) for v in gen.choice(dims.m, size=count, replace=False))
            res = verify.leave_one_out_trajectories(inst, scfg, l_set)
            factor = ex.get("loo_factor", 0.1)
            passed = bool(
                res["dist_initial"] > 0
                and float(np.max(res["series"])) < factor * res["dist_initial"]
            )
            params = {
                "dims": {"s": dims.s, "m": dims.m, "K": dims.K},
                "kappa": kappa,
                "sigma": sigma,
                "eta": cfg.eta,
                "max_iters": cfg.max_iters,
                "l_set": l_set,
                "loo_factor": factor,
            }
            metrics_out = {
                "series": res["series"],
                "dist_initial": res["dist_initial"],
                "max_proximity": float(np.max(res["series"])),
                "degenerate": res["degenerate"],
            }
            report = verify.make_report("loo", params, seed, metrics_out, passed, res["notes"])
        else:  # verify_spectral
            if "m_sweep" in ex:
                m_sweep = ex["m_sweep"]
            elif len(cfg.dims) > 1:
                m_sweep = [d.m for d in cfg.dims]
            else:
                m_sweep = [400, 1600, 6400]
            n_trials = ex.get("n_trials", 200)
            table = []
            for m in m_sweep:
                rep = verify.spectral_concentration(
                    Dimensions(s=dims.s, m=m, K=dims.K), sigma, n_trials, seed
                )
                table.append(
                    {
                        "m": m,
                        "mean_deviation": rep["mean_deviation"],
                        "max_deviation": rep["max_deviation"],
                    }
                )
            means = [row["mean_deviation"] for row in table]
            passed = all(b < a for a, b in zip(means, means[1:]))
            params = {
                "dims": {"s": dims.s, "K": dims.K},
                "m_sweep": m_sweep,
                "sigma": sigma,
                "n_trials": n_trials,
            }
            report = verify.make_report("spectral", params, seed, {"table": table}, passed)
        path = outdir / f"report_{cfg.experiment}_seed{seed}.json"
        verify.write_report(report, path)
        return {"ok": report["pass"], "path": path, "seed": seed}

    return job


def cmd_verify(cfg: ExperimentConfig) -> int:
    if cfg.experiment not in VERIFY_EXPERIMENTS:
        raise UsageError(
            f"verify needs one of {VERIFY_EXPERIMENTS}, got {cfg.experiment!r}"
        )
    outdir = _outdir(cfg)
    results = _run_jobs([_verify_job(cfg, seed, outdir) for seed in cfg.seeds])
    for res in results:
        print(f"wrote {res['path']} pass={res['ok']}")
    return 0 if all(r["ok"] for r in results) else 1


_DISPATCH = {
    "generate": cmd_generate,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demix",
        description="Blind demixing via scaled Wirtinger flow: generate, run, sweep, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the seed list")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](cfg)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
