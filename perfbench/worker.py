"""Run one workload's jobs through ``regfrac.cli.main`` in this process.

Usage: python3 perfbench/worker.py CONFIG_JSON

CONFIG_JSON names a pickled list of jobs (one cycle, built by
``run.py``), the output directory, and either a budget of job seconds
(whole passes run until their job time reaches it and at least
MIN_PASSES passes ran) or a fixed number of passes.  A pass runs every
job once, in order, so every pass runs the same instances.  With
``trace`` set, the public functions of every ``regfrac`` module are
wrapped for the run and restored after it.

Each job's design files are written to the output directory and read by
the CLI as a user would pass them; from the second pass on their rows are
written in a new order, so no pass hands the program byte-identical
files twice.  Only the call to ``main`` is timed; writing inputs,
collecting garbage and recording results happen between jobs.  Untraced,
the reference loop of ``calibration.py`` is timed before, during and
after each call, so the call's time can be scaled to the host's speed
while it ran.  Results go to ``results.jsonl``, totals to
``summary.json``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import regfrac.cli  # noqa: E402  (imported before any timing starts)

import calibration  # noqa: E402
import workloads  # noqa: E402,F401  (defines the pickled jobs)

# passes per timed run at the least, so each job's latency is a median
# over several tries
MIN_PASSES = 3


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``ru_maxrss`` would also count the parent's memory from before exec, so
    the kernel's per-image VmHWM is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_job(job, directory: Path, shuffle: str | None = None, sampler=None) -> dict:
    """Run one job; with a ``calibration.Sampler``, also record the host's speed."""
    paths = []
    for i, design in enumerate(job.designs):
        path = directory / f"in{i}.txt"
        path.write_text(design.text(f"{shuffle}:{i}" if shuffle else None), encoding="utf-8")
        paths.append(str(path))
    argv = [a.format(*paths) for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with contextlib.ExitStack() as stack:
        if sampler is not None:
            stack.enter_context(sampler)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        start = time.perf_counter()
        try:
            rc = regfrac.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    record = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error, "seconds": seconds}
    if sampler is not None:
        record["seconds"] -= sampler.overhead
        record["loop_s"] = sampler.loop_s
    return record


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if config["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # host speed is only needed, and only sampled, when tracing is off
    sampler = calibration.Sampler() if tracer is None else None
    jobs = pickle.loads(Path(config["jobs"]).read_bytes())
    job_seconds = 0.0
    passes = 0
    try:
        with open(out_dir / "results.jsonl", "w", encoding="utf-8") as results:
            while True:
                for index, job in enumerate(jobs):
                    if tracer is not None:
                        tracer.job = passes * len(jobs) + index
                    record = run_job(job, out_dir, f"pass{passes}" if passes else None, sampler)
                    if tracer is not None:
                        tracer.observe_output(job.command, record["stdout"])
                    gc.collect()
                    job_seconds += record["seconds"]
                    record.update({"pass": passes, "index": index, "cls": job.cls})
                    results.write(json.dumps(record) + "\n")
                passes += 1
                if config.get("passes"):
                    if passes >= config["passes"]:
                        break
                elif job_seconds >= config["budget"] and passes >= MIN_PASSES:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = {
        "jobs": len(jobs),
        "passes": passes,
        "job_seconds": job_seconds,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        tracer.write_spans(out_dir / "spans.tsv.gz")
    (out_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
