"""Benchmark of the vacuumpairs library: one workload per process, checked results.

Run from the repository root:

    python3 perfbench/run.py --workload maxima --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Load is a closed loop with one caller: the next op starts when the previous
one has returned, as for a user who calls the library or the CLI and waits.
With ``--trace 0`` the run times ops for ``--seconds`` and reports the
end-to-end metrics, its op times rescaled to the reference host of ``speed.py``; with ``--trace 1`` it runs a fixed number of ops, each
untraced and then traced, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with the
environment and the failures by exception class, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("maxima", "grids", "total")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# ops of a traced run: each pass (untraced, traced) takes about 10 s here
TRACE_OPS = {"maxima": 16, "grids": 200, "total": 6}
# at least this many samples must lie beyond a reported percentile
TAIL_SAMPLES = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# op times are rescaled to the reference host of speed.py; the record keeps the wall times
END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ref_ms": "ms", "ref_ops_per_s": "1/s", "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vacuumpairs" / "__init__.py").is_file():
        print(f"error: no vacuumpairs package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import vacuumpairs

    if Path(vacuumpairs.__file__).resolve().parent != SRC / "vacuumpairs":
        print(f"error: imported vacuumpairs from {vacuumpairs.__file__}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, metric in record["metrics"].items():
        print(f"{args.workload:8s} {name:48s} {metric['value']:.6g} {metric['unit']}")
    for name, value in record["extra"].items():
        print(f"{args.workload:8s} {name:48s} {value}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import warnings

    import vacuumpairs
    from checks import Checker, load_fingerprints
    from speed import Scale
    from workloads import ops

    # counted by the tracer; printing each one would flood the output
    warnings.simplefilter("ignore", vacuumpairs.MultipleRootsWarning)
    # warm-up: fill caches and finish lazy set-up; the op is run again below
    _attempt(next(ops(workload, seed)), Checker({}, workload), Counter())
    checker = Checker(load_fingerprints(), workload)
    failures: Counter = Counter()
    stream = ops(workload, seed)
    latencies = []
    if trace:
        metrics, extra, attempted = traced_run(workload, seed, stream, checker, failures)
    else:
        setup = setup_seconds(workload)
        scaled, ref_busy = [], 0.0
        scale = Scale()
        t_start = time.perf_counter()
        for op in stream:
            latencies.append(_attempt(op, checker, failures))
            done = time.perf_counter() - t_start >= seconds
            segment = scale.mark(force=done)
            if segment is not None:
                factor, busy = segment
                scaled.extend(factor * t for t in latencies[len(scaled):])
                ref_busy += factor * busy
            if done:
                break
        wall = time.perf_counter() - t_start
        attempted = len(latencies)
        correct = attempted - sum(failures.values())
        metrics, extra = end_to_end(scaled, ref_busy, correct, setup)
        extra.update(
            wall_op_p50_ms=1e3 * statistics.median(latencies),
            wall_ops_per_s=correct / wall,
        )
    failed = sum(failures.values())
    extra["failed_ratio"] = failed / attempted
    extra["failures"] = dict(failures)
    extra["fingerprinted_ops"] = checker.fingerprinted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "op_latency_ms": [1e3 * t for t in latencies],
        "environment": environment(seed),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def _attempt(op: dict, checker, failures: Counter, tracer=None) -> float:
    """Run and check one op; returns its latency in seconds, counts a failure by class."""
    from checks import CheckFailed
    from workloads import run_op

    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = run_op(op)
        else:
            with tracer.op_span(op["kind"]):
                result = run_op(op)
    except Exception as exc:  # the loop goes on; the failure is counted and shown
        latency = time.perf_counter() - t0
        _report_failure(op, exc, failures)
        return latency
    latency = time.perf_counter() - t0
    try:
        checker.check(op, result)
    except CheckFailed as exc:
        _report_failure(op, exc, failures)
    return latency


def _report_failure(op: dict, exc: Exception, failures: Counter) -> None:
    failures[type(exc).__name__] += 1
    if failures[type(exc).__name__] == 1:
        print(f"failed op {json.dumps(op)}:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


def end_to_end(latencies: list[float], busy: float, correct: int, setup: float):
    """Metrics from op latencies and loop time, both rescaled to the reference host."""
    ms = sorted(1e3 * t for t in latencies)
    values = {
        "setup_s": setup,
        "op_p50_ref_ms": statistics.median(ms),
        "ref_ops_per_s": correct / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    extra = {"ops": len(ms), "ref_timed_loop_s": busy}
    # the p90 is reported only when at least TAIL_SAMPLES ops lie beyond it
    if len(ms) >= 10 * TAIL_SAMPLES:
        extra["op_p90_ref_ms"] = statistics.quantiles(ms, n=10)[-1]
    else:
        extra["op_p90_ref_ms"] = f"absent: {len(ms)} ops < {10 * TAIL_SAMPLES}"
    return metrics, extra


def traced_run(workload: str, seed: int, stream, checker, failures: Counter):
    """The first TRACE_OPS ops, each untraced and then traced; per-layer metrics."""
    import itertools

    import vacuumpairs
    from spans import METRICS, Tracer

    batch = list(itertools.islice(stream, TRACE_OPS[workload]))
    tracer = Tracer()
    untraced = traced = 0.0
    # each op runs untraced and then traced, so drift in machine speed
    # during the run falls on both sides of the overhead alike
    for op in batch:
        untraced += _attempt(op, checker, failures)
        tracer.install(vacuumpairs)
        try:
            traced += _attempt(op, checker, failures, tracer)
        finally:
            tracer.uninstall()
    values = tracer.metrics()
    values.update({f"cli.import.{m}_ms": v for m, v in import_times_ms().items()})
    values["trace.ops"] = len(batch)
    values["trace.overhead_ms"] = 1e3 * (traced - untraced)
    values["trace.overhead_fraction"] = (traced - untraced) / untraced
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{workload}-seed{seed}-spans.npz"
    tracer.save(spans_file)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
    extra = {"untraced_s": untraced, "traced_s": traced, "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, extra, 2 * len(batch)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def setup_seconds(workload: str) -> float:
    """Median wall time of a fresh interpreter that imports the package and
    computes the transparency windows of the workload's materials.

    Not rescaled: probes taken around a child interpreter did not track its
    time, and rescaled set-up times spread as widely as wall times."""
    from workloads import materials_of

    code = (
        "import vacuumpairs as vp\n"
        f"for name in {materials_of(workload)!r}:\n"
        "    vp.dispersion.transparency_window(vp.get_material(name))\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def import_times_ms() -> dict[str, float]:
    """Median cumulative import time of the package and its scipy modules."""
    from spans import parse_importtime

    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import vacuumpairs"],
            env=_child_env(), check=True, cwd=ROOT, capture_output=True, text=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {m: statistics.median(run[m] for run in runs) for m in runs[0]}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": 0,
    }


def _commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the package sources, which names the code where no commit does."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "vacuumpairs").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after another; a combined result."""
    results, status = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    if status:
        return status
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
