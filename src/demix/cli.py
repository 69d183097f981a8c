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
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import verify
from .problem import Dimensions, make_instance, save_instance, snr_db
from .solver import DegenerateIterateError, DivergenceError, SolverConfig, run

SCHEMA_VERSION = 1
VERIFY_EXPERIMENTS = tuple(verify.CHECKS)
# experiment -> the numeric keys it reads besides kappa, sigma and seeds, with their
# defaults: SolverConfig's fields, or a verify_* check's keyword-only parameters.
_READS = dict.fromkeys(("convergence", "condition_number", "noise_sweep", "incoherence"),
                       asdict(SolverConfig()))
_READS.update((name, dict(check.__kwdefaults__)) for name, check in verify.CHECKS.items())
EXPERIMENTS = tuple(_READS)
# What fails one job, not the command: the job prints an error line and exit code
# 1 follows, while the other jobs still run and write their artifacts.
_JOB_ERRORS = (DivergenceError, DegenerateIterateError, ValueError, MemoryError)
# verify_* experiments that need m >= 2, and why
_NEEDS_TWO = {"verify_rsc": "check_rsc's side conditions divide by log m",
              "verify_loo": "a held-out run has no measurement left to fit"}

CSV_HEADER = "iter,loss,relative_error,dist,inc_a,inc_b,max_alignment_ratio,errors"
SUMMARY_HEADER = "K,s,m,eta,kappa,sigma,seed,snr_db,final_relative_error,iters"

# Numeric config keys: key -> (type, lower bound, bound excluded). An experiment
# that does not read a given key (see _READS) rejects it; absent keys take the
# ExperimentConfig or _READS defaults.
_NUMBERS = {
    "eta": (float, 0.0, True),
    "kappa": (float, 1.0, False),
    "sigma": (float, 0.0, False),
    "max_iters": (int, 1, False),
    "seeds": (int, -math.inf, False),
    "stop_tol": (float, 0.0, False),
    "record_every": (int, 1, False),
    "n_points": (int, 1, False),
    "delta": (float, 0.0, True),
    "n_trials": (int, 1, False),
    "m_sweep": (int, 1, False),
    "l_set": (int, 0, False),
    "n_holdout": (int, 1, False),
    "loo_factor": (float, 0.0, True),
}
_LISTS = ("kappa", "sigma", "seeds", "m_sweep", "l_set")
_ALLOWED_KEYS = {"schema_version", "experiment", "dims", "output_dir", *_NUMBERS}


class UsageError(ValueError):
    """Config or invocation problem; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    experiment: str
    dims: list[Dimensions]
    kappa: list[float] = field(default_factory=lambda: [1.0])
    sigma: list[float] = field(default_factory=lambda: [0.0])
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "out"
    settings: dict = field(default_factory=dict)  # the _READS keys, defaults filled in


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
        if not isinstance(entry, dict) or set(entry) != {"s", "m", "K"}:
            raise UsageError(f"dims entries take exactly the keys s, m, K; got {entry!r}")
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
    version = _number("schema_version", raw.get("schema_version"), int)
    if version != SCHEMA_VERSION:
        raise UsageError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
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
    reads = _READS[experiment]
    unread = sorted(set(values) - set(reads) - {"kappa", "sigma", "seeds"})
    if unread:
        raise UsageError(f"{experiment} does not read {unread}")
    if {"l_set", "n_holdout"} <= set(values):
        raise UsageError("give l_set or n_holdout, not both: n_holdout only sizes a drawn l_set")
    settings = {key: values.pop(key, default) for key, default in reads.items()}
    m_sweep, l_set = settings.get("m_sweep", ()), settings.get("l_set", ())
    if any(m < dims[0].K for m in m_sweep):
        raise UsageError(f"m_sweep entries must be >= K = {dims[0].K}")
    if any(a >= b for a, b in zip(m_sweep, m_sweep[1:])):
        raise UsageError(f"m_sweep must be strictly increasing, got {m_sweep}")
    if any(l >= dims[0].m for l in l_set):
        raise UsageError(f"l_set entries must be < m = {dims[0].m}")
    if len(set(l_set)) < len(l_set):
        raise UsageError(f"l_set must not repeat an index, got {l_set}")
    if experiment in _NEEDS_TWO and dims[0].m < 2:
        raise UsageError(f"{experiment} needs m >= 2, got m={dims[0].m}: {_NEEDS_TWO[experiment]}")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise UsageError(f"output_dir must be a string, got {output_dir!r}")
    return ExperimentConfig(
        experiment=experiment,
        dims=dims,
        output_dir=str(out_override if out_override is not None else output_dir),
        settings=settings,
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


def _solve_all(cfg: ExperimentConfig, command: str) -> list:
    if cfg.experiment in VERIFY_EXPERIMENTS:
        raise UsageError(f"{command} takes a solver experiment; {cfg.experiment} runs under verify")
    scfg = SolverConfig(**cfg.settings)
    outdir = _outdir(cfg)
    return [_solve_job(scfg, outdir, *combo) for combo in _combos(cfg)]


def _solve_job(scfg: SolverConfig, outdir: Path, dims, kappa, sigma, seed) -> dict:
    """One run written as a trajectory CSV; a failed run writes its partial
    trajectory and then an error line.
    """
    path = outdir / f"trajectory_{_stem(dims, kappa, sigma, seed)}.csv"
    res = {"ok": False, "path": path, "seed": seed, "dims": dims, "kappa": kappa, "sigma": sigma,
           "snr_db": None, "final_relative_error": None, "iters": None, "error": None}
    try:
        inst = make_instance(dims, kappa=kappa, sigma=sigma, seed=seed)
        # blank when y carries no noise: sigma = 0, or noise that rounds away against y
        res["snr_db"] = snr_db(inst.y, inst.e) if inst.e.any() else None
        _, records = run(inst, scfg)
    except DivergenceError as ex:
        msg = f"diverged at iteration {ex.iteration}"
        write_trajectory_csv(path, ex.records, f"{ex.iteration},{_fmt(ex.loss_value)},,,,,,{msg}")
        res.update(status="[diverged]", iters=ex.iteration)
    except _JOB_ERRORS as ex:
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
    failed = []
    for dims, kappa, sigma, seed in _combos(cfg):
        path = outdir / f"instance_{_stem(dims, kappa, sigma, seed)}.bin"
        try:
            save_instance(make_instance(dims, kappa=kappa, sigma=sigma, seed=seed), path)
        except _JOB_ERRORS as ex:
            failed.append({"ok": False, "path": path, "seed": seed, "status": None,
                           "error": str(ex)})
        else:
            print(f"wrote {path}")
    return _finish(failed)


def cmd_run(cfg: ExperimentConfig) -> int:
    _scalar_setting(cfg, "run")
    return _finish(_solve_all(cfg, "run"))


def cmd_sweep(cfg: ExperimentConfig) -> int:
    results = _solve_all(cfg, "sweep")
    lines = [SUMMARY_HEADER]
    for res in results:
        dims = res["dims"]
        lines.append(
            ",".join(
                [
                    str(dims.K),
                    str(dims.s),
                    str(dims.m),
                    repr(float(cfg.settings["eta"])),
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
            report = verify.run_check(cfg.experiment, *setting, seed, **cfg.settings)
        except _JOB_ERRORS as ex:
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
        return _DISPATCH[args.command](load_config(args.config, args.seed, args.out))
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
