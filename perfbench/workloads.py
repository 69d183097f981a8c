"""The benchmark workloads: set-up, one job, and the job's correctness gate.

Every call into demix goes through a module attribute (`problem.make_instance`,
`solver.run`, `cli.main`) so that the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from demix import cli, problem, solver, verify

FIG1A_DIMS = problem.Dimensions(s=10, m=2500, K=50)
FIG1A_ETA = 0.1
# Every seed tried needed 770-820 iterations to reach relative error 1e-6;
# 1000 leaves a factor of about 25 in error to spare.
DESCENT_ITERS = 1000
DESCENT_TOL = 1e-6
# The recorded and spectral jobs are kept short (one or two seconds) so that a
# run holds many of them; see run.interference_free.
RECORDED_ITERS = 10
SPECTRAL_CONFIG = {
    "schema_version": 1,
    "experiment": "verify_spectral",
    "dims": {"s": 10, "m": 400, "K": 50},
    "sigma": 0.0,
    "m_sweep": [400, 1600, 6400],
    "n_trials": 4,
}
IMPORT_PROBE = "import demix.cli"
# Nominal wall seconds of one job on the 2-vCPU Xeon host the benchmark was
# tuned on. A run does --seconds / job_s jobs, so the number of jobs, and the
# number of samples behind each fastest time, is the same for every version
# of the program.
DESCENT_JOB_S = 4.0
RECORDED_JOB_S = 1.1
SPECTRAL_JOB_S = 2.2


@dataclass
class JobResult:
    # Seconds from the job's start to its first stamp, between consecutive
    # stamps (one iteration or Monte-Carlo trial each), and from the last stamp
    # to the job's end. Every job of a workload does the same work piece by piece.
    pieces: list[float]
    failures: list[str] = field(default_factory=list)

    @property
    def solve_s(self) -> float:
        return sum(self.pieces)


def pieces(start: float, stamps: list[float], end: float) -> list[float]:
    return np.diff([start, *stamps, end]).tolist()


def dense_relative_error(h, x, h_ref, x_ref) -> float:
    """sum_i ||h_i x_i^* - h'_i x'_i^*||_F / sum_i ||h'_i x'_i^*||_F from outer products."""
    est = h[:, :, None] * np.conj(x)[:, None, :]
    ref = h_ref[:, :, None] * np.conj(x_ref)[:, None, :]
    return float(
        np.linalg.norm(est - ref, axis=(1, 2)).sum() / np.linalg.norm(ref, axis=(1, 2)).sum()
    )


def descent_failures(state, truth) -> list[str]:
    err = dense_relative_error(state.h, state.x, truth.h, truth.x)
    return [] if err <= DESCENT_TOL else [f"final relative error {err:.3e} > {DESCENT_TOL:g}"]


def recorded_failures(records, states, truth, iters: int) -> list[str]:
    """Record count is iters + 1 and every relative_error matches a dense recomputation.

    The program's rank-one formula loses about eps / err in absolute terms
    to cancellation, which the tolerance allows for.
    """
    if len(records) != iters + 1:
        return [f"{len(records)} records, expected {iters + 1}"]
    bad = []
    for rec in records:
        ref = dense_relative_error(states[rec.iter].h, states[rec.iter].x, truth.h, truth.x)
        if rec.relative_error is None or not abs(rec.relative_error - ref) <= 1e-9 * ref + 1e-13:
            bad.append(f"iteration {rec.iter}: relative_error {rec.relative_error!r} vs {ref!r}")
    return bad


def spectral_failures(code: int, report: dict | None, m_sweep) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["no report written"]
    fails = [] if report.get("pass") is True else ["report pass is not true"]
    table = report.get("metrics", {}).get("table", [])
    if [row["m"] for row in table] != list(m_sweep):
        return fails + [f"report covers m = {[row['m'] for row in table]}"]
    means = [row["mean_deviation"] for row in table]
    if not all(b < a for a, b in zip(means, means[1:])):
        fails.append(f"mean_deviation not decreasing in m: {means}")
    return fails


class Fig1a:
    """make_instance at the Fig-1a setting, then scaled Wirtinger flow.

    record_every == max_iters records only the first and last iterates;
    record_every == 1 records every iterate, as the CLI and estimator do.
    """

    def __init__(self, seed: int, max_iters: int, record_every: int, job_s: float, dims=FIG1A_DIMS):
        self.seed = seed
        self.job_s = job_s
        self.dims = dims
        self.s = dims.s
        self.cfg = solver.SolverConfig(eta=FIG1A_ETA, max_iters=max_iters, record_every=record_every)

    def setup(self):
        return problem.make_instance(self.dims, kappa=1.0, sigma=0.0, seed=self.seed)

    @staticmethod
    def fingerprint(inst) -> str:
        return hashlib.sha256(inst.y.tobytes() + inst.A[:, :8].tobytes()).hexdigest()

    def job(self, inst) -> JobResult:
        keep_states = self.cfg.record_every == 1
        stamps, states = [], []

        def on_iterate(t, state):
            stamps.append(perf_counter())
            if keep_states:
                states.append(state)

        t0 = perf_counter()
        state, records = solver.run(inst, self.cfg, on_iterate=on_iterate)
        t1 = perf_counter()
        if keep_states:
            failures = recorded_failures(records, states, inst.truth, self.cfg.max_iters)
        else:
            failures = descent_failures(state, inst.truth)
        return JobResult(pieces(t0, stamps, t1), failures)

    def close(self):
        pass


class SpectralMC:
    """`demix verify` on a verify_spectral config, called as a user would.

    Set-up is what a CLI user pays before the job: a fresh interpreter
    importing demix.cli, timed in a child process.
    """

    job_s = SPECTRAL_JOB_S

    def __init__(self, seed: int, workdir: Path, config=SPECTRAL_CONFIG):
        self.seed = seed
        self.config = dict(config, seeds=[seed])
        self.s = config["dims"]["s"]
        self.workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workdir))
        self.src = Path(cli.__file__).resolve().parents[1]

    def setup(self):
        path = self.workdir / "verify_spectral.json"
        path.write_text(json.dumps(self.config, sort_keys=True), encoding="utf-8")
        # No timeout: with one, subprocess polls the child in sleeps of up to
        # 50 ms, which would quantise the set-up time.
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(self.src)!r}); {IMPORT_PROBE}"],
            check=True,
        )
        return path

    @staticmethod
    def fingerprint(path) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def job(self, path) -> JobResult:
        out = self.workdir / "out"
        stamps = []
        design = verify.sample_design

        def stamped(*args, **kwargs):
            stamps.append(perf_counter())
            return design(*args, **kwargs)

        verify.sample_design = stamped
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = cli.main(["verify", "--config", str(path), "--out", str(out)])
                t1 = perf_counter()
        finally:
            verify.sample_design = design
        report_path = out / f"report_verify_spectral_seed{self.seed}.json"
        report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.exists() else None
        shutil.rmtree(out, ignore_errors=True)
        failures = spectral_failures(code, report, self.config["m_sweep"])
        return JobResult(pieces(t0, stamps, t1), failures)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = ("fig1a_descent", "fig1a_recorded", "spectral_mc")


def make(name: str, seed: int, workdir: Path):
    if name == "fig1a_descent":
        return Fig1a(seed, DESCENT_ITERS, DESCENT_ITERS, DESCENT_JOB_S)
    if name == "fig1a_recorded":
        return Fig1a(seed, RECORDED_ITERS, 1, RECORDED_JOB_S)
    if name == "spectral_mc":
        return SpectralMC(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; valid: {WORKLOADS}")
