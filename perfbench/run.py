"""Benchmark for virtcont: certified CLI jobs, exact and float.

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

runs every workload (see perfbench/README.md).  One driver process sends the
seeded job list, closed loop and one job at a time, to a long-lived worker
child with a memory cap and a per-job wall limit.  Every report is then
checked outside the timed region: a separate `check` of its certificates,
and its headline value against the exact reference stored in refs.json.
Times are scaled to a nominal host speed by probes taken while they ran
(hostspeed.py).  The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics from a separate traced pass with `--trace 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import time

from hostspeed import Sampler, factor, scaled

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BENCH_DIR = os.path.join(REPO, ".bench")   # inputs, reports, spans
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
sys.path.insert(0, SRC)

# The worker's address-space cap (RLIMIT_AS, so virtual size, not RSS).  After
# any job that succeeds, a worker's peak RSS is under 33 MB in either mode,
# and its peak virtual size on exact about 32 MB.  Exact jobs get 16x that,
# so that a change which reserves more address space shows in peak_rss_mb
# rather than as failed jobs.  Float gets about 3x: its known runaway fills
# whatever cap it has, so the cap sets the cost of each failure (about 0.5 s
# at 96 MB, 6-7 s at 1 GB).
MEM_CAP_MB = {"exact": 512, "float": 96}
WALL_LIMIT_S = 30.0   # per job; the slowest exact job takes under 10 s
# Set-ups per run, before and after the timed passes; setup_s is the median
# of all of them.  The host changes speed in episodes of 2-20 s, so set-ups
# spread over the run sample more of them than five in a row would.
SETUPS = (2, 3)
# At least ten timed jobs must lie beyond the 90th percentile, so at least
# 100 succeed.  120 is one pass of exact and three of float (50 succeed per
# pass), so that the number of passes does not depend on the host's speed.
MIN_TIMED_JOBS = 120
CUTOFF = 4            # a measurement's limit, in multiples of --seconds
TOL = 1e-9            # the CLI's default tolerance, used for float headlines

# kinds whose reports `check` has no verifier for (a check job's own report
# is its verdict; refine tables and layer-cake values are judged by headline)
UNCHECKED = ("check", "layer_cake", "refine")
# Printed in the row of each workload; the last line carries them with
# --trace 0.  fail_ratio is shown in the row as 1 - ok_ratio.
ROW = (("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
       ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
END_TO_END = tuple(name for name, _ in ROW)
# the unscaled figures and the host's speed, carried by --trace 1 with the
# layers
PER_LAYER_E2E = ("raw.jobs_per_s", "raw.setup_s", "host.probe_ms")


# ------------------------------------------------------------------ running

class Run:
    """One workload at one seed: set-up, timed passes, gate, metrics."""

    def __init__(self, workload, seed, ctx, root=BENCH_DIR):
        from workloads import Workload
        self.ctx = ctx
        self.dir = os.path.join(root, f"{workload}-{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.refs = load_refs()   # job key -> reference headline
        self.spec = Workload(workload, seed, os.path.join(self.dir, "inputs"),
                             self.refs)
        missing = {job["key"] for job in self.spec.jobs} - set(self.refs)
        if missing:
            raise KeyError(f"no stored reference for {sorted(missing)}")
        self.spec.materialize()
        self.gated = []       # (job, result) pairs to judge after timing
        self.setup_times = []     # raw seconds of each set-up
        self.setup_scaled = []    # the same at the host's nominal speed
        self.worker = None

    def new_worker(self, trace=False):
        from worker import Worker
        return Worker(self.ctx, MEM_CAP_MB[self.spec.workload], trace)

    def setup(self, count):
        """Worker start and import, instance generation, warm-up, and the
        reports that check jobs read; timed `count` times, last worker kept.

        Each part is scaled by the probes of the process that did it: the
        worker's start-up and jobs by the worker's, instance generation and
        report writing by the driver's own.
        """
        from workloads import Workload
        for _ in range(count):
            self.close()
            start = time.perf_counter()
            self.worker = self.new_worker()
            parts = [(self.worker.start_s, self.worker.start_probes)]
            sampler = Sampler()
            sampler.start()
            spec = Workload(self.spec.workload, self.spec.seed, self.spec.root,
                            self.refs)
            spec.materialize()
            mine = sampler.stop()
            parts.append((time.perf_counter() - start - self.worker.start_s, mine))
            for job in spec.warmup:
                res = self.run_job(job)
                self.gated.append((job, res))
                parts += res["parts"]
                if job["key"] in spec.reports:
                    write = time.perf_counter()
                    with open(spec.reports[job["key"]], "w", encoding="utf-8") as fh:
                        fh.write(res["report"])
                    parts.append((time.perf_counter() - write, []))
            self.setup_times.append(time.perf_counter() - start)
            self.setup_scaled.append(sum(scaled(sec, probes, mine)
                                         for sec, probes in parts))

    def run_job(self, job, trace=False):
        """Run a job; a failed job's worker is replaced, which costs time.

        `parts` are the (seconds, probe times) of the job and of the
        replacement, for scaling to the host's nominal speed.
        """
        start = time.perf_counter()
        res = self.worker.run(job, WALL_LIMIT_S)
        res["parts"] = [(time.perf_counter() - start, res["probes"])]
        if res["rc"] != 0:
            self.worker.close()
            self.worker = self.new_worker(trace)
            res["parts"].append((time.perf_counter() - start - res["parts"][0][0],
                                 self.worker.start_probes))
        res["wall"] = time.perf_counter() - start
        return res

    def measure(self, seconds, trace=False):
        """Whole passes, stopping at the first pass boundary after `seconds`
        once MIN_TIMED_JOBS jobs have exited 0; after CUTOFF x seconds, stop
        even mid-pass, which changes the mix of jobs and so is kept for a
        host far slower than usual.  A traced measurement is exactly one
        pass."""
        if trace:
            self.worker.close()
            self.worker = self.new_worker(trace=True)
        results, done = [], 0
        start = time.perf_counter()
        while True:
            for job in self.spec.jobs:
                if not trace and time.perf_counter() - start > CUTOFF * seconds:
                    break
                res = self.run_job(job, trace)
                results.append((job, res))
                done += res["rc"] == 0
            elapsed = time.perf_counter() - start
            if trace or elapsed > CUTOFF * seconds or (
                    done >= MIN_TIMED_JOBS and elapsed >= seconds):
                break
        wall = time.perf_counter() - start
        self.gated += results
        return results, wall

    def close(self):
        if self.worker is not None:
            self.worker.close()
            self.worker = None

    def gate(self):
        """Judge every result; returns (verdict by id(result), wrong answers).

        A result passes if it exited 0, its report passes a separate `check`
        (where the command has a checker) and its headline agrees with the
        reference.  Identical reports are checked once.
        """
        from workloads import agrees, headline
        self.worker = self.new_worker()
        checked, verdicts, wrong = {}, {}, []
        for job, res in self.gated:
            ok = res["rc"] == 0
            if ok:
                digest = hashlib.sha1(res["report"].encode()).hexdigest()
                if digest not in checked:
                    checked[digest] = self._check(job, res["report"], digest)
                try:
                    got = headline(job["kind"], json.loads(res["report"]))
                except (ValueError, KeyError, TypeError):
                    got = None
                ok = checked[digest] and agrees(got, self.refs[job["key"]],
                                                job["mode"], TOL)
                if not ok:
                    wrong.append(f"{job['key']} ({job['mode']}): wrong answer")
            elif res["rc"] == 2 and job["mode"] == "exact":
                wrong.append(f"{job['key']}: certificate failed re-verification")
            verdicts[id(res)] = ok
        self.close()
        return verdicts, wrong

    def _check(self, job, report, digest):
        """A separate `check` of the report's certificates, where one exists."""
        if job["kind"] in UNCHECKED:
            return True
        path = os.path.join(self.dir, "gate", f"{digest}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report)
        out = self.run_job({"argv": ["check", path], "inputs": [path],
                            "mode": job["mode"]})
        try:
            return out["rc"] == 0 and json.loads(out["report"])["violations"] == []
        except (ValueError, KeyError):
            return False


def load_refs():
    """The stored reference headlines (written by make_refs.py)."""
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ metrics

def run_probes(results):
    """Every probe time taken in a measurement's jobs and replacements."""
    return [p for _, res in results for _, probes in res["parts"]
            for p in probes or ()]


def job_seconds(res, fallback):
    """A job's seconds, with its worker's replacement, at nominal speed."""
    return sum(scaled(sec, probes, fallback) for sec, probes in res["parts"])


def end_to_end(results, wall, verdicts, run):
    """The row of a workload.  Times are at the host's nominal speed; the
    raw figures and the mean probe time are kept alongside."""
    fallback = run_probes(results)
    times = [job_seconds(res, fallback) for _, res in results if verdicts[id(res)]]
    rss = [res["rss_mb"] for _, res in results if verdicts[id(res)]]
    ok = len(times)
    total = sum(job_seconds(res, fallback) for _, res in results)
    return {
        "jobs_per_s": ok / total,
        "job_p50_s": statistics.median(times) if times else 0.0,
        "job_p90_s": statistics.quantiles(times, n=10)[8] if ok > 1 else 0.0,
        "ok_ratio": ok / len(results),
        "peak_rss_mb": max(rss, default=0.0),
        "setup_s": statistics.median(run.setup_scaled),
        "raw.jobs_per_s": ok / wall,
        "raw.setup_s": statistics.median(run.setup_times),
        "host.probe_ms": 1000 * statistics.fmean(fallback),
    }, ok


def ladder(results, verdicts):
    """Median job time per kind and size at nominal speed,
    cli.<kind>.n<size>_s; 0 for a rung this workload does not run."""
    from workloads import ladder_rungs
    fallback = run_probes(results)
    times = {f"cli.{kind}.n{n}_s": [] for kind, n in ladder_rungs()}
    for job, res in results:
        if verdicts[id(res)]:
            times[f"cli.{job['kind']}.n{job['n']}_s"].append(job_seconds(res, fallback))
    return {name: statistics.median(v) if v else 0.0 for name, v in times.items()}


def layers(results):
    """Per-layer seconds and counts for one traced pass.

    A layer's seconds are summed over its outermost spans (a span nested in
    a span of the same layer is not counted twice) and scaled to nominal
    speed by the job's probes; calls count every span.
    """
    secs, calls = {}, {}
    under = {"tau": 0, "srnorm.layer_cake": 0}   # thickness calls below these
    job_s = self_s = 0.0
    tau_jobs = breakpoints = 0
    input_bytes = report_bytes = 0
    for job, res in results:
        spans = res["spans"] or []
        if spans:
            spans = [(name, parent, start, start + (end - start) * factor(res["probes"]))
                     for name, parent, start, end in spans]
        for idx, (name, parent, start, end) in enumerate(spans):
            names = []
            p = parent
            while p >= 0:
                names.append(spans[p][0])
                p = spans[p][1]
            calls[name] = calls.get(name, 0) + 1
            if name not in names:
                secs[name] = secs.get(name, 0.0) + (end - start)
            if name == "thickness":
                for outer in under:
                    under[outer] += outer in names
            if parent == -1:   # the job span: its self time is the CLI's own
                job_s += end - start
                self_s += (end - start) - sum(
                    e - s for _, p, s, e in spans if p == idx)
        if job["kind"] == "tau":
            tau_jobs += 1
            breakpoints += job["breakpoints"]
        input_bytes += sum(os.path.getsize(p) for p in job["inputs"])
        report_bytes += len(res["report"].encode())
    out = {
        "flows.cover_s": secs.get("flows.cover", 0.0),
        "flows.cover_calls": calls.get("flows.cover", 0),
        "flows.transport_s": secs.get("flows.transport", 0.0),
        "flows.transport_calls": calls.get("flows.transport", 0),
        "thickness.s": secs.get("thickness", 0.0),
        "thickness.calls": calls.get("thickness", 0),
        "tau.s": secs.get("tau", 0.0),
        "tau.thickness_calls_per_job": under["tau"] / tau_jobs if tau_jobs else 0.0,
        "tau.breakpoints_per_job": breakpoints / tau_jobs if tau_jobs else 0.0,
        "srnorm.s": secs.get("srnorm", 0.0),
        "srnorm.layer_cake_s": secs.get("srnorm.layer_cake", 0.0),
        "srnorm.layer_cake_thickness_calls": under["srnorm.layer_cake"],
        "coupling.s": secs.get("coupling", 0.0),
        "transport.s": secs.get("transport", 0.0),
        "model.validate_metric_s": secs.get("model.validate_metric", 0.0),
        "model.validate_metric_calls": calls.get("model.validate_metric", 0),
        "checkers.s": secs.get("checkers", 0.0),
        "checkers.share": secs.get("checkers", 0.0) / job_s if job_s else 0.0,
        "fileio.parse_s": secs.get("fileio.parse", 0.0),
        "fileio.input_bytes": input_bytes,
        "cli.emit_s": secs.get("cli.emit", 0.0),
        "cli.report_bytes": report_bytes,
        "cli.self_s": self_s,
        "cli.job_s": job_s,
    }
    for name in ("profile", "stepfit", "refine", "matdist"):
        out[f"vcdiag.{name}_s"] = secs.get(f"vcdiag.{name}", 0.0)
    return out


def write_spans(results, path):
    """One JSON line per span: job id, span id, parent span id (-1 for the
    job's own span), name, start and end (perf_counter seconds)."""
    with open(path, "w", encoding="utf-8") as fh:
        for job_id, (_, res) in enumerate(results):
            for idx, (name, parent, start, end) in enumerate(res["spans"] or []):
                fh.write(json.dumps({"job": job_id, "span": idx, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


# The flow kernels each family of jobs must not call: the bypass predictions.
# A check job belongs to the family of the report it checks.
FAMILIES = {"cover": ("thickness", "hall", "tau", "layer_cake"),
            "transport": ("srnorm", "transport", "krnorm"),
            "stepfit": ("vcprofile", "stepfit", "refine", "matdist", "matdist_sampled")}
BYPASS = {"cover": ("flows.transport",), "transport": ("flows.cover",),
          "stepfit": ("flows.cover", "flows.transport")}


def bypass_violations(results):
    """Traced jobs that called a flow kernel their family should bypass."""
    family = {kind: fam for fam, kinds in FAMILIES.items() for kind in kinds}
    count = 0
    for job, res in results:
        kind = job["key"].split("/")[1] if job["kind"] == "check" else job["kind"]
        banned = BYPASS[family[kind]]
        count += any(span[0] in banned for span in res["spans"] or [])
    return count


def run_workload(workload, seed, seconds, trace, ctx, log):
    clock = [time.perf_counter()]

    def lap():
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    run = Run(workload, seed, ctx)
    phases = {}
    try:
        run.setup(SETUPS[0])
        phases["set-up"] = lap()
        results, wall = run.measure(seconds)
        phases["timed"] = lap()
        tresults, twall = [], 0.0
        if trace:
            tresults, twall = run.measure(seconds, trace=True)
            phases["traced"] = lap()
        run.setup(SETUPS[1])
        phases["set-up after"] = lap()
    finally:
        run.close()
    verdicts, wrong = run.gate()
    phases["gate"] = lap()
    log(f"{workload}: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    for line in wrong:
        log(f"{workload}: {line}")
    failures = {}
    for job, res in run.gated:
        if res["rc"] != 0:
            error = (res["error"] or f"exit {res['rc']}").strip().splitlines()[-1]
            failures[(job["key"], error)] = failures.get((job["key"], error), 0) + 1
    for (key, error), count in failures.items():
        log(f"{workload}: {key} failed {count}x: {error}")
    e2e, ok = end_to_end(results, wall, verdicts, run)
    failed_by_kind = {}   # kind -> (failed, attempted) timed jobs
    for job, res in results:
        failed, attempted = failed_by_kind.get(job["kind"], (0, 0))
        failed_by_kind[job["kind"]] = (failed + (not verdicts[id(res)]), attempted + 1)
    measured = results + tresults
    # exact mode promises a certified answer for every valid input, so any
    # failure there is an error; float failures are counted, not fatal
    correct = not wrong and (workload == "float" or all(verdicts.values()))
    metrics = {name: e2e[name] for name in END_TO_END}
    if trace:
        write_spans(tresults, os.path.join(run.dir, "spans.jsonl"))
        metrics = layers(tresults)
        traced, _ = end_to_end(tresults, twall, verdicts, run)
        metrics["trace.overhead_jobs_per_s"] = traced["jobs_per_s"] - e2e["jobs_per_s"]
        metrics["bypass.violations"] = bypass_violations(tresults)
        if metrics["bypass.violations"]:
            log(f"{workload}: a job called a flow kernel its family bypasses")
        for name in PER_LAYER_E2E:
            metrics[name] = e2e[name]
        metrics.update(ladder(results, verdicts))
    return {"correct": correct, "attempted": len(measured),
            "failed": sum(1 for _, res in measured if not verdicts[id(res)]),
            "metrics": metrics, "e2e": e2e, "ok": ok,
            "failed_by_kind": {k: v for k, v in sorted(failed_by_kind.items()) if v[0]}}


def main(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    ctx = multiprocessing.get_context("spawn")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = {w: run_workload(w, args.seed, args.seconds, args.trace, ctx, log)
            for w in names}

    print("workload    " + "  ".join(f"{m} ({u})" for m, u in ROW))
    for w, r in rows.items():
        failed = "".join(f", {kind} failed {f}/{a}"
                         for kind, (f, a) in r["failed_by_kind"].items())
        print(f"{w:<11} " + "  ".join(f"{r['e2e'][m]:>{len(m) + len(u) + 3}.4g}"
                                      for m, u in ROW)
              + f"   [{r['ok']} timed jobs, fail_ratio "
              f"{1 - r['e2e']['ok_ratio']:.3f}{failed}; raw jobs_per_s "
              f"{r['e2e']['raw.jobs_per_s']:.4g}, raw setup_s "
              f"{r['e2e']['raw.setup_s']:.4g}, probe {r['e2e']['host.probe_ms']:.4g} ms]")
    if args.trace:
        for w, r in rows.items():
            for name, value in r["metrics"].items():
                print(f"  {w}  {name} = {value:.6g}")
    metrics = {(m if len(rows) == 1 else f"{w}.{m}"): {"value": v, "unit": unit_of(m)}
               for w, r in rows.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": metrics}))
    # spawn started a resource-tracker helper; end it and wait for it, so
    # that no process of the run outlives it
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()
    return 0


def unit_of(name):
    """Unit of a metric, from its name."""
    if name in dict(ROW):
        return dict(ROW)[name]
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), (".s", "s"), ("_ms", "ms"),
                         ("share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "virtcont", "__init__.py")):
        print(f"error: no virtcont package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
