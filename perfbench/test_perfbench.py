"""The benchmark's own tests: its failure path, its correctness gate and its
scaling to the host's speed.

    python3 -m pytest perfbench -q
"""

import multiprocessing
import time
from fractions import Fraction

import pytest

import hostspeed
import run as bench
import worker
from workloads import WORKLOADS

CTX = multiprocessing.get_context("spawn")


def _first(spec, kind, n):
    return next(j for j in spec.jobs if j["kind"] == kind and j["n"] == n)


@pytest.fixture
def float_run(tmp_path):
    r = bench.Run("float", 1, CTX, root=str(tmp_path))
    r.worker = r.new_worker()
    yield r
    r.close()


def test_float_transport_fails_within_the_limit_and_the_worker_is_replaced(float_run):
    # float transport loops in the transportation solver on some of the
    # workload's instances; the memory cap ends it well inside the wall limit
    for job in float_run.spec.jobs:
        if job["kind"] in ("transport", "krnorm"):
            start = time.perf_counter()
            res = float_run.run_job(job)
            if res["rc"] is None:
                break
    assert res["rc"] is None and "MemoryError" in res["error"]
    assert time.perf_counter() - start < bench.WALL_LIMIT_S
    # the replacement worker serves the next job
    res = float_run.run_job(_first(float_run.spec, "thickness", 20))
    assert res["rc"] == 0


def test_every_job_has_a_stored_reference(tmp_path):
    for workload in WORKLOADS:
        bench.Run(workload, 1, CTX, root=str(tmp_path))   # raises if one is missing


def test_a_wrong_reference_is_counted_as_a_failure(tmp_path):
    r = bench.Run("exact", 1, CTX, root=str(tmp_path))
    job = _first(r.spec, "thickness", 20)
    r.worker = r.new_worker()
    r.gated = [(job, r.run_job(job))]
    r.close()
    verdicts, wrong = r.gate()
    assert all(verdicts.values()) and not wrong
    r.refs[job["key"]] = "12345"
    verdicts, wrong = r.gate()
    assert not any(verdicts.values()) and wrong


def test_a_wrong_layer_cake_integral_fails_the_gate(tmp_path, monkeypatch):
    # layer-cake reports have no checker: only the stored reference can
    # catch a wrong value, so a library that returns one must fail the gate
    from virtcont import srnorm
    r = bench.Run("exact", 1, CTX, root=str(tmp_path))
    job = _first(r.spec, "layer_cake", 10)
    r.gated = [(job, worker.execute(job))]
    verdicts, wrong = r.gate()
    assert all(verdicts.values()) and not wrong
    right = srnorm.layer_cake_integral
    monkeypatch.setattr(srnorm, "layer_cake_integral",
                        lambda f: right(f) + Fraction(1, 7))
    r.gated = [(job, worker.execute(job))]
    verdicts, wrong = r.gate()
    assert r.gated[0][1]["rc"] == 0 and not any(verdicts.values()) and wrong


def test_traced_jobs_split_into_layers_and_bypass_the_other_kernel(tmp_path):
    r = bench.Run("exact", 1, CTX, root=str(tmp_path))
    r.worker = r.new_worker(trace=True)
    jobs = [_first(r.spec, "thickness", 20), _first(r.spec, "tau", 10),
            _first(r.spec, "srnorm", 10), _first(r.spec, "vcprofile", 6)]
    results = [(job, r.run_job(job, trace=True)) for job in jobs]
    r.close()
    assert all(res["rc"] == 0 for _, res in results)
    layers = bench.layers(results)
    assert layers["flows.cover_calls"] >= 2 and layers["flows.transport_calls"] == 1
    assert bench.bypass_violations(results) == 0
    # tau scans every breakpoint, then re-solves the optimum's exceedance set
    assert layers["tau.thickness_calls_per_job"] == jobs[1]["breakpoints"] + 1
    assert 0 < layers["cli.self_s"] < layers["cli.job_s"]
    # jsonable recurses through its own module: only the CLI's call is a span
    spans = results[0][1]["spans"]
    assert sum(1 for s in spans if s[0] == "cli.emit") == 2
    # a thickness job that called the transportation solver would be flagged
    spans.append(["flows.transport", 0, 0.0, 0.0])
    assert bench.bypass_violations(results) == 1


def test_times_are_scaled_by_probes_of_the_same_stretch(tmp_path):
    # a stretch whose probes ran at half the nominal speed counts half its
    # seconds, after the probes' own time is taken out
    slow = [2 * hostspeed.NOMINAL] * 10
    assert hostspeed.scaled(1.0, slow, None) == pytest.approx(
        (1.0 - sum(slow)) / 2)
    # a stretch without probes falls back to the run's
    assert hostspeed.scaled(1.0, None, slow) == pytest.approx(0.5)
    # every job that returns carries probes taken while it ran
    r = bench.Run("exact", 1, CTX, root=str(tmp_path))
    res = worker.execute(_first(r.spec, "srnorm", 10))
    assert res["rc"] == 0 and len(res["probes"]) >= 2
