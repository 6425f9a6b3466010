"""The regfrac benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py`` and documented in README.md.
One worker process at a time runs a workload's jobs through
``regfrac.cli.main`` in a closed loop with one client; every job's output
is then checked by ``check.py``.

A run draws one cycle of jobs from the seed and runs it pass after
pass.  --trace 0 measures the end-to-end metrics: set-up time over
several cold interpreters, then whole passes until their job time
reaches --seconds.  Every time is scaled to the host's speed while it
was taken (``calibration.py``), and a job's latency is the median of its
scaled times over the passes.  --trace 1 runs one pass once untraced and
twice traced (``tracing.py``), asserts that the traced counts repeat
exactly, and reports the per-layer metrics.

The last line of standard output is the result object; the lines before
it print each metric by name with its unit.  The exit code is 0 whenever
a result was printed, including when a job failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 15  # cold interpreters per set-up measurement; the median is reported
TRACE_PASSES = 1  # passes per traced run, so the counts are the same every run
TIME_LIMIT = 170.0  # seconds for a whole run, after which it gives up without a result

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}

# What a CLI user pays before the first verdict: a cold interpreter that
# imports the CLI and parses the inputs.  The probe also times the
# reference loop, at its start and at its end, on the core it runs on, and
# prints the loop's time and the time the loop took.
SETUP_PROBE = """
import sys
import time
from pathlib import Path
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import calibration
loop_before = calibration.loop_seconds()
loop_end = time.perf_counter()
import regfrac.cli
from regfrac.design import parse_design
for path in sys.argv[2:]:
    parse_design(Path(path).read_text(encoding="utf-8"))
resume = time.perf_counter()
loop_after = calibration.loop_seconds()
print((loop_before + loop_after) / 2, loop_end - start + time.perf_counter() - resume)
"""


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def measure_setup(jobs: list, directory: Path, deadline: float) -> tuple[float, float]:
    """Median scaled and median raw set-up time over SETUP_STARTS cold interpreters."""
    paths = []
    for j, job in enumerate(jobs):
        for i, design in enumerate(job.designs):
            path = directory / f"setup-{j}-{i}.txt"
            path.write_text(design.text(), encoding="utf-8")
            paths.append(str(path))
    raw, scaled = [], []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE), *paths], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=_remaining(deadline))
        seconds = time.perf_counter() - start
        if proc.returncode:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        loop_s, overhead = map(float, proc.stdout.split())
        raw.append(seconds - overhead)
        scaled.append(calibration.scaled(seconds - overhead, loop_s))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(directory: Path, jobs_path: Path, deadline: float, *, trace: bool,
               budget: float = 0.0, passes: int = 0) -> tuple[dict, list[dict]]:
    directory.mkdir(parents=True)
    config = {"jobs": str(jobs_path), "trace": trace, "budget": budget, "passes": passes,
              "out": str(directory)}
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(config_path)], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=_remaining(deadline))
    if proc.returncode:
        raise BenchError(f"worker failed: {proc.stderr.strip()}")
    summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
    with open(directory / "results.jsonl", encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    return summary, records


def check_records(workload: str, jobs: list, records: list[dict]) -> int:
    """Check every job run against the truth its job carries; return the failures.

    Every pass runs the same instances (rows reordered, which no check
    depends on), so a verdict is computed once per distinct output.
    """
    verdicts: dict[tuple, list[str]] = {}
    failed = 0
    for record in records:
        key = (record["index"], record["rc"], record["stdout"], record["stderr"], record["error"])
        if key not in verdicts:
            verdicts[key] = check.check_job(jobs[record["index"]], record)
        problems = verdicts[key]
        if problems:
            failed += 1
            print(f"FAILED {workload} pass {record['pass']} job {record['index']} ({record['cls']}): "
                  + "; ".join(problems), file=sys.stderr)
    return failed


def end_to_end(workload: str, jobs: list, jobs_path: Path, seconds: float, directory: Path,
               deadline: float) -> dict:
    setup_s, setup_raw = measure_setup(jobs, directory, deadline)
    summary, records = run_worker(directory / "run", jobs_path, deadline, trace=False, budget=seconds)
    failed = check_records(workload, jobs, records)
    scaled: list[list[float]] = [[] for _ in range(summary["jobs"])]
    raw_best = [float("inf")] * summary["jobs"]
    for r in records:
        scaled[r["index"]].append(calibration.scaled(r["seconds"], r["loop_s"]))
        raw_best[r["index"]] = min(raw_best[r["index"]], r["seconds"])
    latencies = [statistics.median(times) for times in scaled]
    metrics = {"setup_s": setup_s, **_latency_metrics(latencies), "peak_rss_mb": summary["peak_rss_mb"]}
    print(f"# {len(latencies)} jobs x {summary['passes']} passes; a job's latency is the median over the passes "
          f"of its scaled time; p50 and p90 are over {len(latencies)} latencies; "
          f"fail_ratio {failed / len(records):.4f}")
    unscaled = _latency_metrics(raw_best)
    print(f"# unscaled, best of the passes: setup_s {setup_raw:.6f} "
          + " ".join(f"{name} {value:.6f}" for name, value in unscaled.items()))
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def _latency_metrics(latencies: list[float]) -> dict:
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10)[8],
    }


def per_layer(workload: str, jobs: list, jobs_path: Path, directory: Path, deadline: float) -> dict:
    runs = []
    for label, trace in (("untraced", False), ("traced-1", True), ("traced-2", True)):
        runs.append(run_worker(directory / label, jobs_path, deadline, trace=trace, passes=TRACE_PASSES))
    failed = sum(check_records(workload, jobs, records) for _, records in runs)
    attempted = sum(len(records) for _, records in runs)
    (plain, _), (first, _), (second, _) = runs
    layers = first["layers"]
    repeat_ok = True
    for name in tracing.REPEATABLE:
        if layers[name] != second["layers"][name]:
            repeat_ok = False
            print(f"COUNT DIFFERS {name}: {layers[name]} then {second['layers'][name]}", file=sys.stderr)
    spans = OUT / f"spans-{workload}.tsv.gz"
    shutil.copy(directory / "traced-1" / "spans.tsv.gz", spans)
    # traced over untraced jobs_per_s on the same jobs
    layers["trace.overhead_ratio"] = plain["job_seconds"] / first["job_seconds"]
    print(f"# {attempted} jobs over three runs of {TRACE_PASSES} pass(es); spans in {spans.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    if not (ROOT / "src" / "regfrac" / "cli.py").is_file():
        print(f"error: no regfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    directory = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    directory.mkdir()
    try:
        # Built here, not in the worker, so the worker's peak memory is the
        # program's and not that of generating the designs.
        jobs = workloads.cycle_jobs(args.workload, args.seed, 0)
        jobs_path = directory / "jobs.pickle"
        jobs_path.write_bytes(pickle.dumps(jobs))
        if args.trace:
            result = per_layer(args.workload, jobs, jobs_path, directory, deadline)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            result = end_to_end(args.workload, jobs, jobs_path, args.seconds, directory, deadline)
            units = END_TO_END_UNITS
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
