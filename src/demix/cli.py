"""Command-line front end: instance generation, runs, sweeps, verification.

Every command reads a JSON experiment config (schema_version 1) and writes
its artifacts — binary instances with JSON sidecars, per-run trajectory
CSVs, sweep summary CSVs, verification report JSONs — into the output
directory. Identical configs reproduce byte-identical outputs. Exit codes:
0 success; 1 when a job diverges, fails or fails its check (the other jobs
still run), or on I/O trouble; 2 usage.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import verify
from .problem import Dimensions, make_instance, save_instance, snr_db
from .solver import DegenerateIterateError, DivergenceError, SolverConfig, run

SCHEMA_VERSION = 1
VERIFY_EXPERIMENTS = tuple(verify.CHECKS)
EXPERIMENTS = ("convergence", "condition_number", "noise_sweep", "incoherence", *VERIFY_EXPERIMENTS)

CSV_HEADER = "iter,loss,relative_error,dist,inc_a,inc_b,max_alignment_ratio,errors"
SUMMARY_HEADER = "K,s,m,eta,kappa,sigma,seed,snr_db,final_relative_error,iters"

# Numeric config keys: key -> (type, lower bound, bound excluded). Absent keys
# take the ExperimentConfig or SolverConfig defaults; _SOLVER_KEYS go to the
# SolverConfig, _EXTRAS to the verification checks, which hold their defaults.
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
_SOLVER_KEYS = ("eta", "max_iters", "stop_tol", "record_every")
_EXTRAS = {key for experiment in VERIFY_EXPERIMENTS for key in verify.check_extras(experiment)}
_ALLOWED_KEYS = {"schema_version", "experiment", "dims", "output_dir", *_NUMBERS}


class UsageError(ValueError):
    """Config or invocation problem; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    experiment: str
    dims: list[Dimensions]
    solver: SolverConfig
    kappa: list[float] = field(default_factory=lambda: [1.0])
    sigma: list[float] = field(default_factory=lambda: [0.0])
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "out"
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
    solver = SolverConfig(**{key: values.pop(key) for key in _SOLVER_KEYS if key in values})
    extras = {key: values.pop(key) for key in _EXTRAS if key in values}
    reads = verify.check_extras(experiment) if experiment in VERIFY_EXPERIMENTS else {}
    unread = sorted(set(extras) - set(reads))
    if unread:
        raise UsageError(f"{experiment} does not read {unread}")
    if {"l_set", "n_holdout"} <= set(extras):
        raise UsageError("give l_set or n_holdout, not both: n_holdout only sizes a drawn l_set")
    extras = {**reads, **extras}
    if any(m < dims[0].K for m in extras.get("m_sweep", ())):
        raise UsageError(f"m_sweep entries must be >= K = {dims[0].K}")
    if any(l >= dims[0].m for l in extras.get("l_set", ())):
        raise UsageError(f"l_set entries must be < m = {dims[0].m}")
    return ExperimentConfig(
        experiment=experiment,
        dims=dims,
        solver=solver,
        output_dir=str(out_override if out_override is not None else raw.get("output_dir", "out")),
        extras=extras,
        **values,
    )


def _outdir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finish(results) -> int:
    """Print each job's artifact and error; exit code 1 unless every job passed."""
    for res in results:
        if res["status"] is not None:
            print(f"wrote {res['path']} {res['status']}")
        if res["error"] is not None:
            name = res["path"].name
            print(f"error: seed {res['seed']} ({name}): {res['error']}", file=sys.stderr)
    return 0 if all(r["ok"] for r in results) else 1


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


def _combos(cfg: ExperimentConfig) -> list:
    return list(itertools.product(cfg.dims, cfg.kappa, cfg.sigma, cfg.seeds))


def _scalar_setting(cfg: ExperimentConfig, command: str):
    if len(cfg.dims) > 1 or len(cfg.kappa) > 1 or len(cfg.sigma) > 1:
        raise UsageError(f"{command} takes scalar dims/kappa/sigma; only sweep takes lists")
    return cfg.dims[0], cfg.kappa[0], cfg.sigma[0]


def _solve_all(cfg: ExperimentConfig) -> list:
    outdir = _outdir(cfg)
    return [_solve_job(cfg.solver, outdir, *combo) for combo in _combos(cfg)]


def _solve_job(scfg: SolverConfig, outdir: Path, dims, kappa, sigma, seed) -> dict:
    """One run written as a trajectory CSV; a failed run writes its partial
    trajectory and then an error line.
    """
    path = outdir / f"trajectory_{_stem(dims, kappa, sigma, seed)}.csv"
    res = {"ok": False, "path": path, "seed": seed, "dims": dims, "kappa": kappa, "sigma": sigma,
           "snr_db": None, "final_relative_error": None, "iters": None, "error": None}
    try:
        inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
        res["snr_db"] = None if inst.sigma == 0 else snr_db(inst.y, inst.e)
        _, records = run(inst, scfg)
    except DivergenceError as ex:
        msg = f"diverged at iteration {ex.iteration}"
        write_trajectory_csv(path, ex.records, f"{ex.iteration},{_fmt(ex.loss_value)},,,,,,{msg}")
        res.update(status="[diverged]", iters=ex.iteration)
    except (DegenerateIterateError, ValueError) as ex:
        error_line = ',,,,,,,"' + str(ex).replace('"', '""') + '"'
        write_trajectory_csv(path, getattr(ex, "records", []), error_line)
        res.update(status="[failed]", error=str(ex))
    else:
        write_trajectory_csv(path, records)
        res.update(ok=True, status="[ok]", final_relative_error=records[-1].relative_error,
                   iters=records[-1].iter)
    return res


def cmd_generate(cfg: ExperimentConfig) -> int:
    outdir = _outdir(cfg)
    for dims, kappa, sigma, seed in _combos(cfg):
        inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
        path = outdir / f"instance_{_stem(dims, kappa, sigma, seed)}.bin"
        save_instance(inst, path)
        print(f"wrote {path}")
    return 0


def cmd_run(cfg: ExperimentConfig) -> int:
    _scalar_setting(cfg, "run")
    return _finish(_solve_all(cfg))


def cmd_sweep(cfg: ExperimentConfig) -> int:
    results = _solve_all(cfg)
    lines = [SUMMARY_HEADER]
    for res in results:
        dims = res["dims"]
        lines.append(
            ",".join(
                [
                    str(dims.K),
                    str(dims.s),
                    str(dims.m),
                    repr(float(cfg.solver.eta)),
                    repr(float(res["kappa"])),
                    repr(float(res["sigma"])),
                    str(res["seed"]),
                    _fmt(res["snr_db"]),
                    _fmt(res["final_relative_error"]),
                    "" if res["iters"] is None else str(res["iters"]),
                ]
            )
        )
    code = _finish(results)
    summary = _outdir(cfg) / f"summary_{cfg.experiment}.csv"
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {summary}")
    return code


def cmd_verify(cfg: ExperimentConfig) -> int:
    if cfg.experiment not in VERIFY_EXPERIMENTS:
        raise UsageError(f"verify needs one of {VERIFY_EXPERIMENTS}, got {cfg.experiment!r}")
    setting = _scalar_setting(cfg, "verify")
    outdir = _outdir(cfg)

    def job(seed):
        path = outdir / f"report_{cfg.experiment}_seed{seed}.json"
        try:
            report = verify.run_check(cfg.experiment, *setting, cfg.solver, seed, **cfg.extras)
        except (DivergenceError, DegenerateIterateError, ValueError) as ex:
            return {"ok": False, "path": path, "seed": seed, "status": None, "error": str(ex)}
        verify.write_report(report, path)
        ok = report["pass"]
        return {"ok": ok, "path": path, "seed": seed, "status": f"pass={ok}", "error": None}

    return _finish([job(seed) for seed in cfg.seeds])


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
