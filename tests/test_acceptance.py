"""Acceptance gate: one test per criterion, each printing a PASS line.

Frozen regression constants are pinned from independent oracles (brute-force
enumeration and the dense rational LP) and must not drift.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from virtcont import (DiscreteSpace, MetricMatrix, Plan, ProductFunction,
                      family_function, integrate_against_plan, kantorovich,
                      kr_norm, layer_cake_integral, matrix_distribution_exact,
                      matrix_distribution_sample, max_bistochastic_mass,
                      refinement_study, sr_norm, tau_distance, thickness,
                      two_level_duality_check, vc_profile,
                      verify_sr_certificates, verify_transport_result)
from virtcont.cli import main as cli_main
from virtcont.fileio import load_matrix, save_matrix

from lp_oracle import cover_lp_data, dense_lp_solve
from util import (brute_thickness, fn_on, rand_function, rand_metric, rand_set,
                  rand_space, rand_weights)
from test_fileio_cli import _fixture_corpus, _jobs, _run

_SETS = None


def _the_500_sets():
    global _SETS
    if _SETS is None:
        rng = random.Random(2024)
        _SETS = []
        for _ in range(500):
            xs = rand_space(rng, 6, "x")
            ys = rand_space(rng, 6, "y")
            _SETS.append(rand_set(rng, xs, ys, density=rng.uniform(0.2, 0.8)))
    return _SETS


def _passline(k, msg):
    print(f"criterion {k}: PASS - {msg}")


def test_criterion_01_thickness_oracle_equivalence():
    start = time.monotonic()
    for z in _the_500_sets():
        assert thickness(z).value == brute_thickness(z)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _passline(1, f"500/500 flow == brute force exactly in {elapsed:.1f}s")


def test_criterion_02_lp_integrality():
    for z in _the_500_sets():
        A, b, c = cover_lp_data(z)
        value, _, _ = dense_lp_solve(A, b, c)
        assert -value == thickness(z).value
    _passline(2, "500/500 fractional cover LP equals combinatorial value, gap 0")


def test_criterion_03_sr_strong_duality_with_check(tmp_path):
    rng = random.Random(3003)
    fpath = tmp_path / "f.csv"
    rpath = tmp_path / "rep.json"
    for t in range(200):
        xs = rand_space(rng, 10, "x")
        ys = rand_space(rng, 10, "y")
        f = rand_function(rng, xs, ys, denom=6)
        res = sr_norm(f)
        assert res.value == res.dual_value
        assert verify_sr_certificates(f, res) == []
        save_matrix(f, str(fpath))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(["srnorm", str(fpath)]) == 0
        rpath.write_text(buf.getvalue())
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["check", str(rpath)]) == 0
    _passline(3, "200/200 primal == dual, both certificates pass `check`")


def test_criterion_04_layer_cake_equivalence():
    rng = random.Random(4004)
    for _ in range(1000):
        xs = rand_space(rng, rng.randint(1, 5), "x")
        ys = rand_space(rng, rng.randint(1, 5), "y")
        scale = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        f = rand_function(rng, xs, ys, denom=6).scale(scale)
        nf = sr_norm(f).value
        lc = layer_cake_integral(f)
        assert Fraction(1, 4) * nf <= lc <= 2 * nf
    _passline(4, "1000/1000 within [norm/4, 2*norm], zero violations")


def test_criterion_05_tau_metric_suite():
    rng = random.Random(5005)
    for _ in range(200):
        xs = rand_space(rng, rng.randint(2, 4), "x")
        ys = rand_space(rng, rng.randint(2, 4), "y")
        f = rand_function(rng, xs, ys, denom=4)
        g = rand_function(rng, xs, ys, denom=4)
        h = rand_function(rng, xs, ys, denom=4)
        assert tau_distance(f, g).value == tau_distance(g, f).value
        assert (tau_distance(f, h).value
                <= tau_distance(f, g).value + tau_distance(g, h).value)
        zero = ProductFunction.constant(xs, ys, Fraction(0))
        t = tau_distance(zero, f).value
        assert t * t <= 2 * sr_norm(f).value
    _passline(5, "200/200 symmetry, triangle, and Chebyshev link hold")


def test_criterion_06_hall_identity():
    rng = random.Random(6006)
    for _ in range(500):
        xs = rand_space(rng, rng.randint(1, 6), "x")
        ys = rand_space(rng, rng.randint(1, 6), "y")
        z = rand_set(rng, xs, ys)
        res = max_bistochastic_mass(z)
        assert res.mass == thickness(z).value
        assert res.plan.is_bistochastic()
    _passline(6, "500/500 bistochastic mass == thickness, plans exact")


def test_criterion_07_transport_duality():
    rng = random.Random(7007)
    for _ in range(200):
        n = rng.randint(2, 12)
        s = rand_space(rng, n)
        rho = rand_metric(rng, s)
        mu1 = rand_weights(rng, n)
        mu2 = rand_weights(rng, n)
        res = kantorovich(mu1, mu2, rho)
        # verify covers: dual pairing == cost (zero gap), Lipschitz
        # feasibility, and zero complementary-slackness residual on support
        assert verify_transport_result(mu1, mu2, rho, res) == []
        eta = [a - b for a, b in zip(mu1, mu2)]
        assert kr_norm(eta, rho).value == res.cost
    for _ in range(50):
        n = rng.randint(2, 12)
        s = rand_space(rng, n)
        rho = rand_metric(rng, s)
        mu = rand_weights(rng, n)
        assert kantorovich(mu, mu, rho).cost == 0
    _passline(7, "200/200 zero-gap with exact certificates; 50/50 self-cost 0")


def test_criterion_08_two_level_duality():
    rng = random.Random(8008)
    for _ in range(100):
        mu = rand_weights(rng, 6)
        nu = rand_weights(rng, 6)
        cost = [[Fraction(rng.randint(0, 24), 8) for _ in range(6)]
                for _ in range(6)]
        rep = two_level_duality_check(cost, mu, nu)
        assert rep.gap == 0
    _passline(8, "100/100 plan infimum == separable supremum, gap 0")


def test_criterion_09_virtual_continuity_separation():
    tri = refinement_study("triangle_indicator", [8, 16], 4)
    assert tri[0]["value"] == Fraction(1, 4) and tri[0]["kind"] == "exact"
    assert tri[1]["value"] >= tri[0]["value"]  # lower bound does not decrease
    sep = refinement_study("separable_smooth", [8, 16, 32], 4)
    assert sep[0]["value"] == Fraction(7, 64) and sep[0]["kind"] == "exact"
    assert sep[0]["value"] > sep[1]["value"] > sep[2]["value"]
    assert sep[1]["value"] == Fraction(15, 256)
    assert sep[2]["value"] == Fraction(31, 1024)
    # the indicator family stays separated from 0 while xy decays
    assert tri[1]["value"] == Fraction(1, 4) > sep[2]["value"]
    _passline(9, "frozen profiles: staircase 1/4 stays flat, xy decays "
                 "7/64 > 15/256 > 31/1024")


def test_criterion_10_matrix_distribution_invariance():
    rng = random.Random(1010)
    for _ in range(20):
        s = rand_space(rng, 4)
        m = rand_metric(rng, s)
        exact = matrix_distribution_exact(m, 2)
        # split atom 0 into two halves carrying the same distances
        w = list(s.weights)
        half = w[0] / 2
        sw = tuple([half, half] + w[1:])
        labels = tuple(["a0a", "a0b"] + list(s.labels[1:]))
        idx = [0, 0, 1, 2, 3]
        d = tuple(tuple(m.dist[idx[i]][idx[j]] for j in range(5))
                  for i in range(5))
        split = MetricMatrix(DiscreteSpace(labels, sw), d)
        assert matrix_distribution_exact(split, 2) == exact
        # relabeled copy: permute the atoms
        perm = list(range(4))
        rng.shuffle(perm)
        pl = tuple(s.labels[p] for p in perm)
        pw = tuple(s.weights[p] for p in perm)
        pd = tuple(tuple(m.dist[perm[i]][perm[j]] for j in range(4))
                   for i in range(4))
        relabeled = MetricMatrix(DiscreteSpace(pl, pw), pd)
        assert matrix_distribution_exact(relabeled, 2) == exact
        # sampled empirical law is TV-close to the exact one
        count = 10 ** 4
        draws = matrix_distribution_sample(m, 2, count, seed=99)
        emp = {}
        for dmat in draws:
            emp[dmat] = emp.get(dmat, 0) + 1
        sup = dict(exact.support)
        keys = set(sup) | set(emp)
        tv = sum(abs(Fraction(emp.get(k2, 0), count) - sup.get(k2, Fraction(0)))
                 for k2 in keys) / 2
        assert tv <= Fraction(5 * len(exact.support)) / int(math.isqrt(count))
    _passline(10, "20/20 atom-split and relabel invariant; sampling TV in bound")


def test_criterion_11_trace_integration():
    n = 16
    s = DiscreteSpace.uniform(n)
    pts = [Fraction(i, n) for i in range(n)]
    f = fn_on(s, s, lambda i, j: pts[i] + pts[j])
    diag = Plan.diagonal(s)
    closed_form = sum(Fraction(1, n) * 2 * x for x in pts)
    assert integrate_against_plan(f, diag) == closed_form == Fraction(15, 16)
    dist = fn_on(s, s, lambda i, j: abs(pts[i] - pts[j]))
    assert integrate_against_plan(dist, diag) == 0
    _passline(11, "diagonal trace of x+y is 15/16 exactly; of |x-y| is 0")


def test_criterion_12_cli_determinism(tmp_path):
    paths = _fixture_corpus(tmp_path)
    jobs = _jobs(paths)
    for job in jobs:
        code1, out1 = _run(job)
        code2, out2 = _run(job)
        assert code1 == code2 == 0
        assert out1 == out2
    # environment-level determinism: identical bytes under different hash seeds
    outs = []
    for hs in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hs)
        proc = subprocess.run([sys.executable, "-m", "virtcont.cli",
                               "srnorm", paths["f"]],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    # round-trip parse/emit identity on every corpus file
    for name, p in paths.items():
        if p.endswith(".csv"):
            obj = load_matrix(p)
            save_matrix(obj, p + ".rt")
            assert Path(p).read_text() == Path(p + ".rt").read_text()
    _passline(12, "all fixture jobs byte-identical; corpus round-trips exactly")
