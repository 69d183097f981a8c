"""Benchmark entry point for demix.

    python3 perfbench/run.py --workload fig1a_descent --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds nothing: demix is imported from
`src/`. Prints a human-readable table, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, taken from each piece's
fastest time over the run's jobs; with --trace 1 they are its per-layer
metrics, taken from spans around each layer's entry points. The number of
jobs depends on the workload and --seconds only, never on how fast they run.
`--workload all` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DEMIX_THREADS")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# Set-ups per run, spread evenly over its jobs.
SETUP_REPEATS = 22
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
# A traced pair is an untraced job plus a traced set-up and job.
TRACED_PAIR_JOBS = 2.5
# A run stops starting jobs after this long, so that it ends within 180 s
# even on a host or a program several times slower than the nominal one.
MAX_MEASURE_S = 120.0
# End-to-end times are reported at the host speed at which one HostProbe call
# takes this long; see host_speed.
PROBE_REF_S = 0.008
PROBES_PER_JOB = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or spec)."""


def pin_threads(environ) -> dict:
    """Pin BLAS and demix to one thread; return the pins the caller overrode."""
    overridden = {k: environ[k] for k in PINS if environ.get(k, "1") != "1"}
    for k in PINS:
        environ.setdefault(k, "1")
    return overridden


def check_metric_names(names) -> None:
    bad = [n for n in names if not (NAME_RE.fullmatch(n) and len(n) <= 64)]
    if bad:
        raise BenchError(f"invalid metric names: {bad}")


def load_spec(root: Path) -> dict:
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as ex:
        raise BenchError(f"cannot read BENCHMARK.json: {ex}") from ex
    check_metric_names([m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    return spec


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(overridden: dict) -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(ROOT),
        "pins": {k: os.environ[k] for k in PINS},
        "pins_overridden": sorted(overridden),
    }


def job_count(seconds: float, job_s: float, minimum: int) -> int:
    """Jobs for a run of about `seconds` at the workload's nominal job time."""
    return max(minimum, round(seconds / job_s))


def run_jobs(n: int, job, notes: list[str]) -> list:
    """Run job() n times, or fewer if MAX_MEASURE_S passes first."""
    results, t0 = [], perf_counter()
    while len(results) < n:
        results.append(job())
        if len(results) < n and perf_counter() - t0 > MAX_MEASURE_S:
            notes.append(f"stopped after {len(results)} of {n} jobs at {MAX_MEASURE_S:g} s")
            break
    return results


def percentile(values, q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


class TimedSetups:
    """Set-ups timed between the jobs of a run, so that they meet the same
    stretches of host speed as the jobs and the probes."""

    def __init__(self, wl, n_jobs: int):
        self.wl, self.n_jobs, self.jobs = wl, n_jobs, 0
        self.times, self.prints, self.ctx = [], set(), None

    def before_job(self):
        """Time set-ups until SETUP_REPEATS * jobs / n_jobs are done; return the context."""
        self.jobs += 1
        while self.ctx is None or len(self.times) * self.n_jobs < SETUP_REPEATS * self.jobs:
            self.ctx = None  # free the previous instance before timing the next
            t0 = perf_counter()
            self.ctx = self.wl.setup()
            self.times.append(perf_counter() - t0)
            self.prints.add(self.wl.fingerprint(self.ctx))
        return self.ctx


class HostProbe:
    """A fixed mix of interpreter, small-array and BLAS work that calls no demix code."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((10, 250, 50)) + 1j * rng.standard_normal((10, 250, 50))
        self.v = rng.standard_normal((10, 50)) + 0j
        self.z = self.a[0, 0]

    def __call__(self) -> float:
        np = self.np
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(10):
            np.einsum("ikl,il->ik", self.a, self.v)
        for _ in range(2000):
            abs(np.vdot(self.z, self.z)) ** 0.5
        return perf_counter() - t0


def host_speed(probe_times) -> float:
    """PROBE_REF_S over the probe's fastest time: below 1 on a slowed host.

    Other tenants of a shared host also slow its fastest moments, by 10-20%
    for minutes at a time. The probe's fastest time in a run tracks that
    slowdown, so the fastest job pieces and set-up of the run, multiplied by
    this factor, are comparable across runs.
    """
    return PROBE_REF_S / min(probe_times)


def interference_free(jobs) -> list[float]:
    """Each piece's fastest time over the jobs: the job without interference.

    Other tenants of a shared host slow a job by up to 2x, for seconds to
    minutes at a time, and never speed one up. Every job of a workload does the
    same work piece by piece, so the fastest time of each piece is its own cost.
    """
    return [min(piece) for piece in zip(*(j.pieces for j in jobs))]


def end_to_end(wl, seconds: float) -> tuple[dict, list, list[str]]:
    probe = HostProbe()
    probes = [probe() for _ in range(PROBES_PER_JOB)]
    n_jobs = job_count(seconds, wl.job_s, MIN_JOBS)
    setups = TimedSetups(wl, n_jobs)

    def job():
        result = wl.job(setups.before_job())
        probes.extend(probe() for _ in range(PROBES_PER_JOB))
        return result

    notes = []
    jobs = run_jobs(n_jobs, job, notes)
    speed = host_speed(probes)
    setup_s = min(setups.times)
    best = interference_free(jobs)
    iters = best[1:-1]
    values = {
        "setup_s": speed * setup_s,
        "solve_s": speed * sum(best),
        "iter_ms": speed * 1e3 * statistics.median(iters),
        "iter_ms_p90": speed * 1e3 * percentile(iters, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes += [
        f"{len(jobs)} jobs of {len(iters)} intervals, {len(setups.times)} set-ups",
        f"host speed {speed:.4f} (fastest of {len(probes)} probes {1e3 * min(probes):.3f} ms)",
        f"unscaled setup_s {setup_s:.4f} solve_s {sum(best):.4f}",
        f"median job seconds {statistics.median(j.solve_s for j in jobs):.4f}",
        "job seconds " + " ".join(f"{j.solve_s:.4f}" for j in jobs),
    ]
    if len({len(j.pieces) for j in jobs}) != 1:
        notes.append("FAIL: jobs differ in their number of iterations")
    if len(setups.prints) != 1:
        notes.append("FAIL: repeated set-ups gave different inputs")
    return values, jobs, notes


def per_layer(wl, seconds: float) -> tuple[dict, list, list[str]]:
    import spans

    ctx = wl.setup()

    def paired_job():
        """One untraced job, then set-up and job again under tracing."""
        plain = wl.job(ctx)
        rec = spans.Recorder()
        t0 = perf_counter()
        with spans.tracing(rec):
            res = wl.job(wl.setup())
        wall = perf_counter() - t0
        return plain, res, spans.summarise(rec), wall, len(rec.spans)

    notes = []
    n_pairs = job_count(seconds, TRACED_PAIR_JOBS * wl.job_s, MIN_TRACED_JOBS)
    traced = run_jobs(n_pairs, paired_job, notes)
    sums = [summary for _, _, summary, _, _ in traced]
    n = len(traced)
    values = {}
    for name, _, _ in spans.ENTRY_POINTS:
        calls = sums[0][name]["calls"]
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = sum(s[name]["self_s"] for s in sums) / n
        if name in spans.WORK:
            values[f"{name}.bytes_computed"] = sums[0][name]["bytes"] / calls if calls else 0
    for layer in spans.LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            values[f"{name}.self_s"] for name, _, _ in spans.ENTRY_POINTS if name.startswith(layer + ".")
        )
    align_calls = values["metrics.align_source.calls"]
    values["metrics.align_useful_ratio"] = (
        wl.s * values["solver.record.calls"] / align_calls if align_calls else 0
    )
    self_sums = [sum(e["self_s"] for e in summary.values()) for summary in sums]
    walls = [wall for _, _, _, wall, _ in traced]
    values.update({
        "trace.wall_s": sum(walls) / n,
        "trace.self_sum_s": sum(self_sums) / n,
        "trace.spans": traced[0][4],
        "trace.solve_s": statistics.median(res.solve_s for _, res, _, _, _ in traced),
        "trace.untraced_solve_s": statistics.median(plain.solve_s for plain, _, _, _, _ in traced),
        "trace.overhead_s": statistics.median(res.solve_s - plain.solve_s for plain, res, _, _, _ in traced),
    })
    notes.append(f"{n} pairs of untraced and traced jobs; values are per traced job")
    counts = [{k: v["calls"] for k, v in summary.items()} for summary in sums]
    if any(c != counts[0] for c in counts):
        notes.append("FAIL: call counts differ between traced jobs")
    if any(ss > w for ss, w in zip(self_sums, walls)):
        notes.append("FAIL: self times sum past the traced wall time")
    return values, [job for plain, res, _, _, _ in traced for job in (plain, res)], notes


def measure(args, spec: dict) -> int:
    import workloads

    wl = workloads.make(args.workload, args.seed, ROOT)
    try:
        if args.trace:
            values, jobs, notes = per_layer(wl, args.seconds)
            wanted = spec["per_layer"]
        else:
            values, jobs, notes = end_to_end(wl, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        wl.close()
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in wanted})}")
    failed = sum(1 for j in jobs if j.failures)
    for j in jobs:
        notes += [f"FAIL: {f}" for f in j.failures]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + "; ".join(notes))
    for m in wanted:
        print(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'fail_rate':<40} {failed / len(jobs):>16.6g} ratio ({failed}/{len(jobs)} jobs)")
    result = {
        "correct": not any(n.startswith("FAIL") for n in notes),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    import workloads

    codes = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, timeout=600).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "demix" / "__init__.py").is_file():
            raise BenchError(f"demix sources not found under {ROOT / 'src'}")
        spec = load_spec(ROOT)
        overridden = pin_threads(os.environ)
        sys.path.insert(0, str(ROOT / "src"))
        if overridden:
            print(f"warning: thread pins overridden: {overridden}", file=sys.stderr)
        if args.workload == "all":
            return run_all(args)
        print("env " + json.dumps(environment(overridden), sort_keys=True))
        return measure(args, spec)
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
