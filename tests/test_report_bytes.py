"""Byte-identity guard: pinned SHA-1 digests of whole CLI reports.

Criterion 12 pins run-to-run determinism; these digests pin the bytes
themselves, so a change to a solver's internals that moves any emitted
number, certificate or tie-break shows here.  The instances are small
(n <= 10), fixed-seed and non-uniformly weighted, so that the weights,
costs and function values carry several distinct denominators.  The
digests were recorded from the Fraction-only solvers, before the integer
scaling of the exact kernels.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest

from virtcont.cli import main
from virtcont.fileio import save_matrix, save_metric, save_vector

from util import rand_function, rand_metric, rand_set, rand_space, rand_weights

PINNED = {
    ("exact", "thickness"): "e741de0c41a3350d7aead663d064076a7fa168a5",
    ("exact", "hall"): "e9f42588781e00b7c2f1c804480dafc71a16cf9c",
    ("exact", "tau"): "8590f56582b952c1f686c1acaf8d67fdeb861ce8",
    ("exact", "srnorm"): "f2f36eb06b404e3d872ba70cd871c2ad034f3694",
    ("exact", "transport"): "5e78a557e5736b62b7409ec1b093c6765e9bea7b",
    ("exact", "krnorm"): "53f5d132d90c3e3446e76bc9e85b0a990ea004a2",
    ("float", "thickness"): "9e2e8d63247f554f9261381d2506f1025e602688",
    ("float", "hall"): "d5210b13fcc295e7378bea9a4310173605d92d7f",
    ("float", "tau"): "2dcee372dbadc225bc568a0eb812ae1fe2e278ba",
}


def _corpus(tmp_path):
    rng = random.Random(2024)
    xs, ys = rand_space(rng, 9, "x"), rand_space(rng, 10, "y")
    save_matrix(rand_set(rng, xs, ys, 0.4), str(tmp_path / "z.csv"))
    f = rand_function(rng, xs, ys, denom=7)
    g = f.add(rand_function(rng, xs, ys, denom=10, lo=-1, hi=1))
    save_matrix(f, str(tmp_path / "f.csv"))
    save_matrix(g, str(tmp_path / "g.csv"))
    ps = rand_space(rng, 8, "p")
    save_metric(rand_metric(rng, ps, denom=15), str(tmp_path / "rho.json"))
    mu1, mu2 = rand_weights(rng, 8), rand_weights(rng, 8)
    save_vector(mu1, str(tmp_path / "mu1.json"))
    save_vector(mu2, str(tmp_path / "mu2.json"))
    save_vector([a - b for a, b in zip(mu1, mu2)], str(tmp_path / "eta.json"))
    p = {name: str(tmp_path / name) for name in
         ("z.csv", "f.csv", "g.csv", "rho.json", "mu1.json", "mu2.json", "eta.json")}
    return {
        "thickness": ["thickness", p["z.csv"]],
        "hall": ["hall", p["z.csv"]],
        "tau": ["tau", p["f.csv"], p["g.csv"]],
        "srnorm": ["srnorm", p["f.csv"]],
        "transport": ["transport", p["rho.json"], p["mu1.json"], p["mu2.json"]],
        "krnorm": ["krnorm", p["rho.json"], p["eta.json"]],
    }


@pytest.mark.parametrize("mode,command", sorted(PINNED))
def test_report_bytes_pinned(tmp_path, mode, command):
    argv = ["--mode", mode] + _corpus(tmp_path)[command]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    digest = hashlib.sha1(buf.getvalue().encode()).hexdigest()
    assert digest == PINNED[(mode, command)]
