"""The worker process: runs one job at a time through the CLI entry point.

The driver sends jobs over a pipe and enforces the per-job wall limit.  The
worker caps its own address space before it runs anything, so a job that
fills memory raises MemoryError (or the process dies) instead of exhausting
the machine; either way the driver replaces the worker.

With tracing on, the worker wraps the package's public functions in its own
spans, patching every binding of each function (where the caller imported
it as well as where it is defined), so that no call escapes its span.
Nothing under src/ is changed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import resource
import time
import traceback

from hostspeed import Sampler

# (span name, defining module, function, modules to patch or None for every
# module of the package that binds the function)
LAYERS = (
    ("flows.cover", "virtcont.flows", "min_weighted_vertex_cover", None),
    ("flows.transport", "virtcont.flows", "solve_transportation", None),
    ("thickness", "virtcont.thickness", "thickness", None),
    ("tau", "virtcont.tau", "tau_distance", None),
    ("srnorm", "virtcont.srnorm", "sr_norm", None),
    ("srnorm.layer_cake", "virtcont.srnorm", "layer_cake_integral", None),
    ("coupling", "virtcont.coupling", "max_bistochastic_mass", None),
    ("transport", "virtcont.transport", "kantorovich", None),
    ("transport", "virtcont.transport", "kr_norm", None),
    ("model.validate_metric", "virtcont.model", "validate_semimetric", None),
    ("checkers", "virtcont.checkers", "check_report", None),
    ("fileio.parse", "virtcont.fileio", "load_matrix", None),
    ("fileio.parse", "virtcont.fileio", "load_metric", None),
    ("fileio.parse", "virtcont.fileio", "load_vector", None),
    # jsonable recurses through its own module's binding: wrap only the CLI's
    ("cli.emit", "virtcont.fileio", "jsonable", ("virtcont.cli",)),
    ("cli.emit", "virtcont.cli", "emit_report", None),
    ("vcdiag.profile", "virtcont.vcdiag", "vc_profile", None),
    ("vcdiag.stepfit", "virtcont.vcdiag", "step_fit_exists", None),
    ("vcdiag.refine", "virtcont.vcdiag", "refinement_study", None),
    ("vcdiag.matdist", "virtcont.vcdiag", "matrix_distribution_exact", None),
    ("vcdiag.matdist", "virtcont.vcdiag", "matrix_distribution_sample", None),
)


class Tracer:
    """Spans of the current job: [name, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        spans.append([name, stack[-1] if stack else -1, time.perf_counter(), None])
        idx = len(spans) - 1
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][3] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def install(tracer):
    """Replace every binding of each LAYERS function by a traced wrapper."""
    import virtcont
    modules = [virtcont] + [importlib.import_module(f"virtcont.{m.name}")
                            for m in pkgutil.iter_modules(virtcont.__path__)]
    for name, modname, fname, where in LAYERS:
        original = getattr(importlib.import_module(modname), fname)
        wrapper = tracer.wrap(name, original)
        targets = modules if where is None else [importlib.import_module(m)
                                                 for m in where]
        for mod in targets:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)


def _run_cli(job):
    from virtcont import cli
    try:
        return cli.main(job["argv"])
    except SystemExit as e:  # argparse rejects a malformed invocation
        return e.code


def _run_layer_cake(job):
    # layer_cake_integral has no CLI command; this job parses, solves and
    # emits a one-value report through the same module bindings the CLI uses
    from virtcont import fileio, srnorm
    f = fileio.load_matrix(job["inputs"][0], job["mode"] == "exact")
    rep = {"command": "layer_cake", "mode": job["mode"],
           "value": srnorm.layer_cake_integral(f)}
    print(json.dumps(fileio.jsonable(rep), sort_keys=True))
    return 0


def execute(job, tracer=None):
    """Run one job; the result carries the exit code, report, peak RSS and
    the probe times of the host's speed taken while it ran."""
    body = _run_cli if job["argv"] is not None else _run_layer_cake
    out, err = io.StringIO(), io.StringIO()
    error = None
    sampler = Sampler()
    sampler.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = body(job)
            else:
                rc = tracer.span("job", body, job)
    except Exception as e:  # the job's failure is the result, not the worker's
        rc, error = None, "".join(traceback.format_exception_only(type(e), e))
    seconds = time.perf_counter() - start
    probes = sampler.stop()
    return {"rc": rc, "seconds": seconds, "probes": probes,
            "report": out.getvalue(), "error": error or err.getvalue()[-500:],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "spans": tracer.take() if tracer is not None else None}


def serve(conn, mem_cap_mb, trace):
    """Worker main loop: cap memory, import, then answer jobs until None.
    The ready message carries the probe times taken during start-up."""
    sampler = Sampler()
    sampler.start()
    cap = mem_cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    import virtcont.cli  # noqa: F401  (the import is part of start-up)
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    conn.send(sampler.stop())
    while True:
        job = conn.recv()
        if job is None:
            return
        conn.send(execute(job, tracer))


class Worker:
    """Driver-side handle on one worker process; `start_s` is the wall time
    from spawn to ready, `start_probes` the probe times the worker took in
    it."""

    def __init__(self, ctx, mem_cap_mb, trace=False, start_limit=60.0):
        start = time.perf_counter()
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=serve, args=(child, mem_cap_mb, trace),
                                daemon=True)
        self.proc.start()
        child.close()
        if not self.conn.poll(start_limit):
            self.close()
            raise RuntimeError("worker did not start")
        self.start_probes = self.conn.recv()
        self.start_s = time.perf_counter() - start

    def run(self, job, limit):
        """The job's result, or a failure result if the wall limit or the
        memory cap ended it (the worker is then dead and must be replaced)."""
        try:
            self.conn.send(job)
            if self.conn.poll(limit):
                return self.conn.recv()
            error = f"wall limit of {limit} s"
        except (EOFError, OSError) as e:
            error = f"worker died: {e!r}"
        self.close(kill=True)
        return {"rc": None, "seconds": None, "probes": None, "report": "",
                "error": error, "rss_mb": None, "spans": None}

    def close(self, kill=False):
        if self.proc.is_alive() and not kill:
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.proc.join(1.0)
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.conn.close()
