"""Self-tests for the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import copy
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import regfrac  # noqa: E402


def _inputs(workload: str, seed: int, cycles: int = 2) -> tuple[list[str], bytes]:
    classes, blob = [], []
    for index in range(cycles):
        for job in workloads.cycle_jobs(workload, seed, index):
            classes.append(job.cls)
            blob.append(json.dumps(job.argv) + "".join(d.text() for d in job.designs))
    return classes, "\n".join(blob).encode()


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_other_seed_gives_other_inputs_with_same_mix(workload):
    classes_a, blob_a = _inputs(workload, 7)
    classes_b, blob_b = _inputs(workload, 8)
    assert classes_a == classes_b
    assert blob_a != blob_b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycle_leaves_ten_jobs_beyond_the_90th_percentile(workload):
    assert len(workloads.CYCLES[workload]) >= 100


@pytest.mark.parametrize("s", sorted(workloads.SQUARE_NOT_ZS))
def test_base_squares_are_not_isotopic_to_zs(s):
    square = workloads.SQUARE_NOT_ZS[s]
    for relabel in itertools.permutations(range(s)):
        rows = [[relabel[v] for v in r] for r in square]
        # rank one iff every row differs from the first by a constant
        if all(len({(rows[a][b] - rows[0][b]) % s for b in range(s)}) == 1 for a in range(s)):
            pytest.fail(f"relabeling {relabel} makes the order-{s} square a Z_s table")


def test_s11_triple_needs_the_planned_representative():
    import random

    s = 11
    dep = workloads.s11_triple(random.Random(3)).scramble[2]

    def straightens(index):
        image = workloads._compose(workloads.coset_representative(s, index), dep)
        h, k = (image[1] - image[0]) % s, image[0]
        return all(image[e] == (h * e + k) % s for e in range(s))

    # coset representatives are unique, so exactly one index straightens it
    hits = [i for i in range(workloads.S11_REP_WINDOW[1]) if straightens(i)]
    assert len(hits) == 1 and hits[0] >= workloads.S11_REP_WINDOW[0]


def _run(job, tmp_path):
    record = worker.run_job(job, tmp_path)
    assert check.check_job(job, record) == [], record
    return record


def _job(workload: str, cls: str, seed: int = 1):
    return next(j for j in workloads.cycle_jobs(workload, seed, 0) if j.cls == cls)


def test_checker_flags_flipped_regularity_verdict(tmp_path):
    job = _job("regularity", "reg_5^4-1w4")
    record = _run(job, tmp_path)
    flipped = dict(record, rc=1, stdout=json.dumps(dict(json.loads(record["stdout"]), regular=False)))
    assert check.check_job(job, flipped)


def test_checker_flags_corrupted_regularity_witness(tmp_path):
    job = _job("regularity", "reg_5^4-1w4")
    record = _run(job, tmp_path)
    payload = json.loads(record["stdout"])
    perms = payload["permutations"]
    perms[0] = perms[0][1:] + perms[0][:1]
    assert check.check_job(job, dict(record, stdout=json.dumps(payload)))
    payload = json.loads(record["stdout"])
    payload["equations"][0]["constant"] += 1
    assert check.check_job(job, dict(record, stdout=json.dumps(payload)))


def test_checker_flags_flipped_iso_verdict_and_corrupted_witness(tmp_path):
    job = _job("iso", "copy_3^4-2")
    record = _run(job, tmp_path)
    payload = json.loads(record["stdout"])
    flipped = dict(payload, outcome="not_isomorphic", column_map=None, level_perms=None)
    assert check.check_job(job, dict(record, rc=1, stdout=json.dumps(flipped)))
    corrupt = copy.deepcopy(payload)
    corrupt["level_perms"][1] = corrupt["level_perms"][1][::-1]
    assert check.check_job(job, dict(record, stdout=json.dumps(corrupt)))
    exhausted = dict(payload, outcome="exhausted", column_map=None, level_perms=None)
    assert check.check_job(job, dict(record, rc=2, stdout=json.dumps(exhausted)))


def test_checker_flags_wrong_analyze_output(tmp_path):
    job = _job("analyze", "latin_7")
    record = _run(job, tmp_path)
    payload = json.loads(record["stdout"])
    assert check.check_job(job, dict(record, stdout=json.dumps(dict(payload, strength=payload["strength"] + 1))))
    payload["coefficients"][-1]["numerator"][0] += 1
    assert check.check_job(job, dict(record, stdout=json.dumps(payload)))


def test_checker_flags_wrong_perm_poly_output(tmp_path):
    job = _job("perm_poly", "affine_7")
    record = _run(job, tmp_path)
    flipped = record["stdout"].replace("monomial: yes", "monomial: no")
    assert check.check_job(job, dict(record, stdout=flipped))
    lines = record["stdout"].splitlines()
    lines[1] = "u_1 = (1/7)*(3*w1 + 5*w2)"  # coefficients of a u_h sum to at most s
    assert check.check_job(job, dict(record, stdout="\n".join(lines) + "\n"))


def test_checker_flags_crash():
    job = _job("perm_poly", "affine_7")
    record = {"rc": None, "stdout": "", "stderr": "", "error": "Traceback...\nValueError: boom\n"}
    assert check.check_job(job, record)


def _bindings() -> dict:
    """Every attribute of every regfrac module and class, by identity."""
    out = {}
    for module in tracing._modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("regfrac"):
                for name, member in vars(value).items():
                    out[(module.__name__, attr, name)] = member
    return out


def test_tracer_patches_every_binding_site_and_restores_them(tmp_path):
    before = _bindings()
    original = regfrac.indicator.gwlp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (regfrac, regfrac.indicator, regfrac.isomorphism, regfrac.cli):
            assert module.gwlp is not original
            assert module.gwlp.__wrapped__ is original
        assert regfrac.CycInt.__rmul__ is regfrac.CycInt.__mul__
        assert regfrac.CycInt.__mul__.__wrapped__ is not None
        _run(_job("iso", "distinct_5^4-1"), tmp_path)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    metrics = tracer.metrics()
    assert metrics["indicator.gwlp.self_s"] > 0
    assert metrics["isomorphism.prefilter_reject_ratio"] == 1.0


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        _run(_job("analyze", "latin_5"), tmp_path)
    finally:
        tracer.uninstall()
    names = tracer.names
    top = [i for i in range(len(tracer.span_name)) if tracer.span_parent[i] == -1]
    assert [names[tracer.span_name[i]] for i in top] == ["cli.main"]
    main_span = top[0]
    duration = tracer.span_end[main_span] - tracer.span_start[main_span]
    assert 0 < tracer.self_s[names.index("cli.main")] < duration
    assert abs(sum(tracer.self_s) - duration) < 1e-6 * max(1, len(tracer.span_name))
    assert set(tracer.span_job) == {0}


def _traced_counts(workload: str, classes: set[str], tmp_path) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job in workloads.cycle_jobs(workload, 5, 0):
            if job.cls in classes:
                record = _run(job, tmp_path)
                tracer.observe_output(job.command, record["stdout"])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    return {name: metrics[name] for name in tracing.REPEATABLE}


@pytest.mark.parametrize("workload, classes", [
    ("regularity", {"reg_5^4-1w4", "reg_3^6-3", "latin_5"}),
    ("iso", {"copy_3^4-2", "distinct_3^5-2"}),
    ("analyze", {"reg_3^5-2", "latin_5"}),
    ("perm_poly", {"random_7", "affine_11"}),
])
def test_traced_counts_repeat_exactly(workload, classes, tmp_path):
    first = _traced_counts(workload, classes, tmp_path)
    assert any(first.values())
    assert _traced_counts(workload, classes, tmp_path) == first


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_runner_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "perm_poly", "--seed", "1", "--seconds", "1"]) == 2
    assert "{" not in capsys.readouterr().out


def test_sampler_times_the_loop_during_a_call_and_disarms_after():
    import signal
    import time

    import calibration

    sampler = calibration.Sampler()
    with sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample before, one after, and one per SAMPLE_EVERY_S in between
    assert len(sampler.samples) >= 2 + 3
    assert 0 < sampler.overhead < 0.2
    assert min(sampler.samples) <= sampler.loop_s <= max(sampler.samples)
    assert calibration.scaled(2.0, 2 * calibration.REFERENCE_LOOP_S) == 1.0
