"""Benchmark of circulant-ilc: seeded workloads timed from outside the package.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload descent --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35

A run is a closed loop with one client: each job starts when the previous one
ends. The run cycles through the workload's job list until --seconds have
passed, running every job at least twice. Times are in reference seconds:
each job's wall time is divided by the slowdown that a fixed probe measures
around it (speed.py), because this machine's speed drifts by tens of percent
(README.md, Noise). --trace 0 prints the end-to-end metrics. --trace 1 spends
the first half of the time untraced and the rest with spans recorded around
the package's public functions, and prints the per-layer metrics. `all` runs
every workload both ways. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import itertools
import json
import resource
import statistics
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bench_env
from tracing import Tracer, parse_importtime, summarize

SETUP_PROBES = 5


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="descent, horizon, cli_presets or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time to spend repeating jobs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes for the harness smoke test")
    return p


def _tail(values):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten or fewer samples the
    maximum is returned and nothing lies beyond it.
    """
    ordered = sorted(values)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


class _SetupProbes:
    """Fresh interpreters that import circulant_ilc and generate the run's inputs.

    Each is timed from spawn to its ready line. They are spread over the run,
    between jobs, so their median does not hang on one moment of the machine.
    """

    def __init__(self, args, work_dir):
        self.cmd = [sys.executable]
        if args.trace:
            self.cmd += ["-X", "importtime"]
        self.cmd += [
            str(bench_env.BENCH_DIR / "setup_probe.py"),
            args.workload, str(args.seed), "1" if args.tiny else "0",
        ]
        self.wanted = 1 if args.tiny else SETUP_PROBES
        self.err_path = work_dir / "probe.err"
        self.times, self.imports = [], []

    def due(self, elapsed, seconds, speed):
        """Run the probes whose share of the run has begun."""
        while len(self.times) < self.wanted and elapsed >= len(self.times) * seconds / self.wanted:
            self.probe(speed)

    def finish(self, speed):
        while len(self.times) < self.wanted:
            self.probe(speed)

    def probe(self, speed):
        start = time.perf_counter()
        with self.err_path.open("w") as err, subprocess.Popen(
            self.cmd, stdout=subprocess.PIPE, stderr=err, text=True,
            env=bench_env.child_env(), cwd=bench_env.ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        normalized = speed.normalize(elapsed)
        stderr = self.err_path.read_text()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}):\n{stderr[-2000:]}")
        self.times.append(normalized)
        self.imports.append(parse_importtime(stderr))


def _run_job(job, ctx, job_id, speed):
    """Run one job, then check its output; return (wall, reference seconds, failed)."""
    output, error = None, None
    scope = ctx.tracer.job(job_id) if ctx.tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            output = job.run(ctx)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    normalized = speed.normalize(wall)
    if error is None:
        try:
            job.check(output)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(f"job failed: {job.label}\n{error}", file=sys.stderr)
    return wall, normalized, error is not None


def _print_metrics(metrics):
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")


def _run_one(args):
    import workloads
    from speed import REFERENCE_S, SpeedProbe

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work_root = bench_env.BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        speed = SpeedProbe()
        probes = _SetupProbes(args, work_dir)
        probes.due(0.0, args.seconds, speed)
        jobs = workloads.generate(args.workload, args.seed, args.tiny)
        tracer = Tracer() if args.trace else None
        untraced = [[] for _ in jobs]  # reference seconds per job
        traced = [[] for _ in jobs]
        walls = [[] for _ in jobs]  # untraced wall seconds per job
        attempted = failed = 0
        start = time.perf_counter()

        def repeat(samples, ctx, until, at_least, whole_passes=False):
            """Cycle through the job list until `until` seconds into the run."""
            nonlocal attempted, failed
            for j in itertools.cycle(range(len(jobs))):
                elapsed = time.perf_counter() - start
                done = elapsed >= until and min(map(len, samples)) >= at_least
                if done and (j == 0 or not whole_passes):
                    return
                probes.due(elapsed, args.seconds, speed)
                wall, normalized, bad = _run_job(jobs[j], ctx, attempted, speed)
                samples[j].append(normalized)
                if samples is untraced:
                    walls[j].append(wall)
                attempted += 1
                failed += bad

        plain = workloads.Context(work_dir)
        if args.trace:
            repeat(untraced, plain, args.seconds / 2, 1)
            with tracer.installed():
                # Whole passes, so that counts per pass are exact.
                repeat(traced, workloads.Context(work_dir, tracer), args.seconds, 1, True)
        else:
            repeat(untraced, plain, args.seconds, 2)
        probes.finish(speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    job_s = [statistics.median(samples) for samples in untraced]
    factors = statistics.quantiles(speed.factors, n=10)
    print("env " + json.dumps(bench_env.environment_block(args.seed), sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")
    print(
        f"{len(jobs)} jobs, each run {min(map(len, untraced))}+ times untraced and "
        f"{min(map(len, traced))}+ times traced; {attempted} attempted, {failed} failed; "
        f"closed loop with one client"
    )
    print(
        f"machine slowdown against the {REFERENCE_S} s probe reference: median "
        f"{statistics.median(speed.factors):.3f}, p10 {factors[0]:.3f}, p90 {factors[-1]:.3f} "
        f"over {len(speed.factors)} probes; wall_s in wall-clock seconds "
        f"{sum(statistics.median(w) for w in walls):.6g}"
    )
    if args.trace:
        metrics = summarize(tracer.spans, tracer.counts, len(traced[0]))
        metrics["import.circulant_ilc_s"] = (statistics.median(i[0] for i in probes.imports), "s")
        metrics["import.scipy_s"] = (statistics.median(i[1] for i in probes.imports), "s")
        traced_s = [statistics.median(samples) for samples in traced]
        metrics["trace.overhead_s"] = (sum(traced_s) - sum(job_s), "s")
    else:
        tail, percentile, beyond = _tail(job_s)
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics = {
            "wall_s": (sum(job_s), "s"),
            "setup_s": (statistics.median(probes.times), "s"),
            "job_p50_s": (statistics.median(job_s), "s"),
            "job_tail_s": (tail, "s"),
            "peak_rss_mb": (usage / 1024.0, "MB"),
            "success_ratio": ((attempted - failed) / attempted, "1"),
        }
        print(
            f"{sum(map(len, untraced))} untraced runs of {len(job_s)} jobs; a job's time is "
            f"the median of its runs; wall_s sums them, job_p50_s is their median, job_tail_s is "
            f"p{percentile:.1f} with {beyond} jobs beyond it; setup_s is the median of "
            f"{len(probes.times)} probes; "
            f"fail_ratio {failed / attempted:g}"
        )
    _print_metrics(metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def _run_all(args):
    """Every workload untraced then traced, each in its own process."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bench_env.ROOT)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"run.py: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            print(f"== {name} --trace {trace}")
            print("\n".join(lines[:-1]))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    bench_env.pin_blas()
    bench_env.pin_cpu()
    try:
        bench_env.use_checkout_src()
    except bench_env.CheckoutError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
