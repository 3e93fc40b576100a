"""Write refs.json: the reference headline of every job of both workloads.

    python3 perfbench/make_refs.py

A reference is computed in exact mode by direct library calls on the
in-memory instances, independent of the CLI's parse and emit and of float
arithmetic.  The stored file was written once, from the code before any
optimisation; a benchmark run only reads it, so a change that returns wrong
values cannot move its own references.  Rewrite it only when the workloads'
instances change, and check in the diff that no existing value moved.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from virtcont import (kantorovich, kr_norm, layer_cake_integral,  # noqa: E402
                      matrix_distribution_exact, matrix_distribution_sample,
                      max_bistochastic_mass, refinement_study, sr_norm,
                      tau_distance, thickness, vc_profile)
from virtcont.fileio import jsonable  # noqa: E402

from workloads import (MATDIST_SAMPLES, PROGRAM_SEED, WORKLOADS,  # noqa: E402
                       Workload, digest, stepfit_functions)

REFS = os.path.join(HERE, "refs.json")


def solve(job, objects):
    """The job's headline, from the library in exact arithmetic."""
    kind = job["kind"]
    if kind == "check":   # a check job's headline is its list of violations
        return []
    args = [objects[os.path.basename(p)] for p in job["inputs"]]
    if kind == "thickness":
        return thickness(*args).value
    if kind == "hall":
        return max_bistochastic_mass(*args).mass
    if kind == "tau":
        return tau_distance(*args).value
    if kind == "layer_cake":
        return layer_cake_integral(*args)
    if kind == "srnorm":
        return sr_norm(*args).value
    if kind == "transport":
        rho, mu1, mu2 = args
        return kantorovich(mu1, mu2, rho).cost
    if kind == "krnorm":
        rho, eta = args
        return kr_norm(eta, rho).value
    if kind == "stepfit":
        # the stored profile is exact: no strict fit exists at its value,
        # and one exists above it
        return job["key"].endswith("/hit")
    if kind == "refine":
        return [[r["n"], r["blocks"], r["value"], r["kind"]] for r in
                refinement_study(job["family"], job["grids"], 2, PROGRAM_SEED)]
    if kind == "matdist":
        support = matrix_distribution_exact(args[0], 2).support
        return digest(jsonable([[m, p] for m, p in support]))
    if kind == "matdist_sampled":
        return digest(jsonable(matrix_distribution_sample(
            args[0], 2, MATDIST_SAMPLES, PROGRAM_SEED)))
    raise ValueError(f"no reference for {kind!r}")


def main():
    refs = {}
    for name, f in stepfit_functions().items():
        for blocks in (2, 3):
            prof = vc_profile(f, blocks, PROGRAM_SEED)
            refs[f"vcprofile/{name}/{blocks}"] = jsonable([prof.value, prof.exact])
    with tempfile.TemporaryDirectory() as root:
        for workload in WORKLOADS:
            spec = Workload(workload, 0, root, refs)
            for job in spec.jobs:
                if job["key"] not in refs:
                    refs[job["key"]] = jsonable(solve(job, spec.objects))
                    print(job["key"], file=sys.stderr, flush=True)
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
