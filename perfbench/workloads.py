"""Instances and job lists for the two workloads, and how reports are judged.

`exact` runs every job kind in exact arithmetic: the cover kinds (thickness,
hall, tau, layer cake), the transport kinds (srnorm, transport, krnorm), the
step-fit kinds (vcprofile, stepfit, refine, matdist) and `check` jobs.
`float` runs the cover and transport kinds with --mode float.

The generators mirror the distributions in tests/util.py (rand_space,
rand_set, rand_function, rand_metric); they are copied here so that a change
to the test helpers cannot silently change the benchmark's inputs.

Every instance is drawn from a fixed seed, the same in every run, so that
its reference answer can be stored in refs.json (see make_refs.py) instead of
being computed by the code under test.  Fixed instances also keep the runs
steady: one instance's solve time varies by +-25% between draws, and which
float instances hit the float solver's known runaway would otherwise depend
on the draw.  The run's seed shuffles the order of the jobs in a pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from virtcont import DiscreteSpace, MetricMatrix, ProductFunction, ProductSet
from virtcont.fileio import save_matrix, save_metric, save_vector

WORKLOADS = ("exact", "float")

# (size, distinct instances, repetitions per pass).  The counts place each
# workload's median and 90th percentile inside a group of like jobs rather
# than between two groups.  The float workload runs each transport-kind job
# once per pass: a failing float job costs a memory-cap hit and a new worker,
# and repeats of the failing instances would make a pass mostly failure
# handling.  Float srnorm runs 15 instances, as many as the random trial that
# first showed its runaway; at these draws it fails on some of them.
SET_SIZES = ((20, 3, 1), (40, 3, 2), (80, 1, 2))
TAU_SIZES = ((10, 3, 1), (20, 1, 1), (30, 1, 1))
LAYER_CAKE_SIZES = ((10, 2, 1), (20, 1, 1))
SRNORM_SIZES = ((10, 4, 2), (20, 2, 1), (40, 1, 1))
FLOAT_SRNORM_SIZES = ((10, 8, 1), (20, 5, 1), (40, 2, 1))
METRIC_SIZES = ((10, 4, 4), (20, 3, 1), (40, 1, 1))
STEPFIT_SIZES = ((6, 3, 1), (8, 1, 1))
CHECK_REPS = 2
MATDIST_N = 8
MATDIST_SAMPLES = 2000
REFINE = (("separable_smooth", "4,8"), ("triangle_indicator", "8,16"),
          ("metric_kernel", "4,8"))
PROGRAM_SEED = 0   # --seed of the step-fit jobs; the references depend on it
TRANSPORT_KINDS = ("srnorm", "transport", "krnorm")


# ------------------------------------------------------------ distributions

def rng_for(name):
    """The generator of one instance, from its file name alone."""
    return random.Random(f"fixed:{name}")


def rand_weights(rng, n):
    parts = [rng.randint(1, 9) for _ in range(n)]
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


def rand_space(rng, n, prefix="a"):
    return DiscreteSpace(tuple(f"{prefix}{i}" for i in range(n)),
                         tuple(rand_weights(rng, n)))


def rand_set(rng, xs, ys, density=0.5):
    return ProductSet(xs, ys, tuple(tuple(rng.random() < density
                                          for _ in range(ys.size))
                                    for _ in range(xs.size)))


def rand_function(rng, xs, ys, denom=12, lo=-3, hi=3):
    return ProductFunction(xs, ys, tuple(
        tuple(Fraction(rng.randint(lo * denom, hi * denom), denom)
              for _ in range(ys.size)) for _ in range(xs.size)))


def rand_square_function(name, n):
    rng = rng_for(name)
    return rand_function(rng, rand_space(rng, n, "x"), rand_space(rng, n, "y"))


def rand_metric(rng, space, denom=6, hi=4):
    n = space.size
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, hi * denom), denom)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return MetricMatrix(space, tuple(tuple(row) for row in d))


def _ladder(sizes):
    """(size, index, reps) for every instance of a ladder."""
    return [(n, c, reps) for n, count, reps in sizes for c in range(count)]


def stepfit_functions():
    """The step-fit workload's functions, by file name."""
    return {f"v-{n}-{c}.csv": rand_square_function(f"v-{n}-{c}.csv", n)
            for n, c, _ in _ladder(STEPFIT_SIZES)}


# --------------------------------------------------------------- workloads

class Workload:
    """Instances (written to files by `materialize`) and one pass of jobs.

    `refs` are the stored reference headlines: the step-fit jobs take their
    eps from the stored profile values, on either side of the optimum.
    """

    def __init__(self, workload, seed, root, refs):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.root = workload, seed, root
        self.objects = {}       # file name -> model object or vector
        self.jobs = []          # one pass
        self.warmup = []        # small jobs run once per set-up
        self.reports = {}       # warm-up job key -> path of the report that
                                # check jobs read
        self._cover(workload)
        self._transport(workload)
        if workload == "exact":
            self._stepfit(refs)
        random.Random(f"{workload}:{seed}").shuffle(self.jobs)

    def path(self, name):
        return os.path.join(self.root, name)

    def _job(self, kind, n, key, argv, inputs, reps, mode, **extra):
        if mode == "float":
            if kind in TRANSPORT_KINDS:
                reps = 1
            if argv is not None:
                argv = ["--mode", mode] + argv
        job = dict(kind=kind, n=n, key=key, argv=argv, mode=mode,
                   inputs=[self.path(f) for f in inputs], **extra)
        self.jobs.extend(dict(job) for _ in range(reps))
        return job

    def _check_jobs(self, sources, mode):
        """Standalone `check` jobs on reports emitted during set-up."""
        for src in sources:
            name = f"report-{src['key'].replace('/', '-')}.json"
            self.reports[src["key"]] = self.path(name)
            self._job("check", src["n"], f"check/{src['key']}",
                      ["check", self.path(name)], [name], CHECK_REPS, mode)

    def _cover(self, mode):
        first = {}
        for n, c, reps in _ladder(SET_SIZES):
            name = f"set-{n}-{c}.csv"
            rng = rng_for(name)
            self.objects[name] = rand_set(rng, rand_space(rng, n, "x"),
                                          rand_space(rng, n, "y"))
            for kind in ("thickness", "hall"):
                job = self._job(kind, n, f"{kind}/{name}", [kind, self.path(name)],
                                [name], reps, mode)
                first.setdefault((kind, n), job)
        for n, c, reps in _ladder(TAU_SIZES):
            fn, gn = f"f-{n}-{c}.csv", f"g-{n}-{c}.csv"
            rng = rng_for(fn)
            xs, ys = rand_space(rng, n, "x"), rand_space(rng, n, "y")
            f = self.objects[fn] = rand_function(rng, xs, ys)
            g = self.objects[gn] = rand_function(rng, xs, ys)
            num = float if mode == "float" else Fraction
            breakpoints = len({abs(num(a) - num(b)) for ra, rb in zip(f.values, g.values)
                               for a, b in zip(ra, rb)} | {num(0)})
            job = self._job("tau", n, f"tau/{fn}", ["tau", self.path(fn), self.path(gn)],
                            [fn, gn], reps, mode, breakpoints=breakpoints)
            first.setdefault(("tau", n), job)
        for n, c, reps in _ladder(LAYER_CAKE_SIZES):
            name = f"lc-{n}-{c}.csv"
            self.objects[name] = rand_square_function(name, n)
            job = self._job("layer_cake", n, f"layer_cake/{name}", None, [name],
                            reps, mode)
            first.setdefault(("layer_cake", n), job)
        sources = [first[("thickness", 20)], first[("hall", 20)], first[("tau", 10)]]
        self.warmup += sources + [first[("layer_cake", 10)]]
        self._check_jobs(sources, mode)

    def _transport(self, mode):
        first = {}
        sizes = FLOAT_SRNORM_SIZES if mode == "float" else SRNORM_SIZES
        for n, c, reps in _ladder(sizes):
            name = f"h-{n}-{c}.csv"
            self.objects[name] = rand_square_function(name, n)
            job = self._job("srnorm", n, f"srnorm/{name}", ["srnorm", self.path(name)],
                            [name], reps, mode)
            first.setdefault(("srnorm", n), job)
        for n, c, reps in _ladder(METRIC_SIZES):
            rn, m1, m2, en = (f"{s}-{n}-{c}.json" for s in ("rho", "mu1", "mu2", "eta"))
            rng = rng_for(rn)
            self.objects[rn] = rand_metric(rng, rand_space(rng, n, "p"))
            mu1 = self.objects[m1] = rand_weights(rng, n)
            mu2 = self.objects[m2] = rand_weights(rng, n)
            self.objects[en] = [a - b for a, b in zip(mu1, mu2)]
            job = self._job("transport", n, f"transport/{rn}",
                            ["transport", self.path(rn), self.path(m1), self.path(m2)],
                            [rn, m1, m2], reps, mode)
            first.setdefault(("transport", n), job)
            job = self._job("krnorm", n, f"krnorm/{rn}",
                            ["krnorm", self.path(rn), self.path(en)], [rn, en], reps, mode)
            first.setdefault(("krnorm", n), job)
        if mode == "exact":
            sources = [first[(k, 10)] for k in TRANSPORT_KINDS]
            self.warmup += sources
            self._check_jobs(sources, mode)
        # In float mode these kinds run out of memory on some instances, so
        # they neither warm up nor emit the reports that float check jobs
        # read; their solves stay in the job list.

    def _stepfit(self, refs):
        seed, first = str(PROGRAM_SEED), {}
        functions = stepfit_functions()
        for n, c, reps in _ladder(STEPFIT_SIZES):
            name = f"v-{n}-{c}.csv"
            self.objects[name] = functions[name]
            for blocks in (2, 3):
                key = f"vcprofile/{name}/{blocks}"
                job = self._job("vcprofile", n, key,
                                ["--seed", seed, "vcprofile", self.path(name),
                                 "--blocks", str(blocks)], [name], reps, "exact",
                                blocks=blocks)
                first.setdefault(("vcprofile", n), job)
                # the stored profile is exact (sides <= 8): no strict fit
                # exists at its value, and its witness is a strict fit above it
                value = Fraction(refs[key][0])
                for tag, eps in (("miss", value), ("hit", value + Fraction(1, 24))):
                    job = self._job("stepfit", n, f"stepfit/{name}/{blocks}/{tag}",
                                    ["--seed", seed, "stepfit", self.path(name),
                                     "--blocks", str(blocks), "--eps", str(eps)],
                                    [name], reps, "exact")
                    first.setdefault(("stepfit", n), job)
        for family, grids in REFINE:
            sizes = [int(s) for s in grids.split(",")]
            self._job("refine", sizes[-1], f"refine/{family}",
                      ["--seed", seed, "refine", "--family", family,
                       "--grids", grids, "--blocks", "2"], [], 1, "exact",
                      family=family, grids=sizes)
        name = f"rho-{MATDIST_N}.json"
        rng = rng_for(name)
        self.objects[name] = rand_metric(rng, rand_space(rng, MATDIST_N, "p"))
        self._job("matdist", MATDIST_N, f"matdist/{name}",
                  ["matdist", self.path(name), "--order", "2"], [name], 1, "exact")
        self._job("matdist_sampled", MATDIST_N, f"matdist_sampled/{name}",
                  ["--seed", seed, "matdist", self.path(name), "--order", "2",
                   "--samples", str(MATDIST_SAMPLES)], [name], 1, "exact")
        self.warmup += [first[("vcprofile", 6)], first[("stepfit", 6)]]

    def materialize(self):
        """Write every instance file under the root directory."""
        os.makedirs(self.root, exist_ok=True)
        for name, obj in self.objects.items():
            path = self.path(name)
            if isinstance(obj, MetricMatrix):
                save_metric(obj, path)
            elif isinstance(obj, list):
                save_vector(obj, path)
            else:
                save_matrix(obj, path)


def ladder_rungs():
    """Every (kind, size) some workload times: the rungs of the size ladder."""
    rungs = {("check", 10), ("check", 20),   # the report sources' sizes
             ("matdist", MATDIST_N), ("matdist_sampled", MATDIST_N)}
    for kinds, sizes in ((("thickness", "hall"), SET_SIZES), (("tau",), TAU_SIZES),
                         (("layer_cake",), LAYER_CAKE_SIZES),
                         (("srnorm",), SRNORM_SIZES + FLOAT_SRNORM_SIZES),
                         (("transport", "krnorm"), METRIC_SIZES),
                         (("vcprofile", "stepfit"), STEPFIT_SIZES)):
        rungs |= {(kind, n) for kind in kinds for n, _, _ in sizes}
    rungs |= {("refine", int(grids.split(",")[-1])) for _, grids in REFINE}
    return sorted(rungs)


# --------------------------------------------------------------- headlines

def digest(obj):
    """A short stand-in for a large headline (a support or a sample list)."""
    return hashlib.sha1(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def headline(kind, rep):
    """The value a report is judged by, in the form references take."""
    if kind in ("thickness", "tau", "srnorm", "krnorm", "layer_cake"):
        return rep["value"]
    if kind == "hall":
        return rep["mass"]
    if kind == "transport":
        return rep["cost"]
    if kind == "vcprofile":
        return [rep["value"], rep["exact_optimum"]]
    if kind == "stepfit":
        return rep["found"]
    if kind == "refine":
        return [[r["n"], r["blocks"], r["value"], r["kind"]] for r in rep["table"]]
    if kind == "matdist":
        return digest([[e["matrix"], e["probability"]] for e in rep["support"]])
    if kind == "matdist_sampled":
        return digest(rep["samples"])
    if kind == "check":
        return rep["violations"]
    raise ValueError(f"no headline for {kind!r}")


def agrees(got, ref, mode, tol):
    """Exact equality, or agreement within tol on every number in float mode."""
    if mode == "exact" or isinstance(ref, bool):
        return got == ref
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(agrees(g, r, mode, tol) for g, r in zip(got, ref)))
    if isinstance(ref, str) and isinstance(got, str):
        try:
            return abs(float(Fraction(got)) - float(Fraction(ref))) <= tol
        except (ValueError, ZeroDivisionError):
            return False
    return got == ref
