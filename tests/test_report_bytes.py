"""Byte-identity guard: pinned SHA-1 digests of whole CLI reports.

Criterion 12 pins run-to-run determinism; these digests pin the bytes
themselves, so a change to a solver's internals that moves any emitted
number, certificate or tie-break shows here.  The `PINNED` instances are
small (n <= 10), fixed-seed and non-uniformly weighted, so that the
weights, costs and function values carry several distinct denominators;
their digests were recorded from the Fraction-only solvers, before the
integer scaling of the exact kernels.  Each group below says where its
own digests come from.
"""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from virtcont import DiscreteSpace, MetricMatrix
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

# Exact transportation reports at n = 20 whose shortest paths tie often:
# integer-valued functions on a uniform and a coarse space, and a metric of
# zeros inside clusters and ones and twos between them, with coarse masses.
# Ties between shortest paths decide the plans and the potentials, so these
# pin the solver's tie-break.  Recorded from a Bellman-Ford search that
# scanned every arc in every round.
TIES_PINNED = {
    "krnorm": "0dcb860555df0553b117020c2d882b54fcac02a6",
    "srnorm": "726ef5b54fab71713a1d1b6633d9e5e689727286",
    "transport": "ef5d58c07c0acaca668492cef7fbfb34a7c0bd83",
}

# Cover reports at a benchmark size, n = 40, on one uniform and one random
# space: equal weights make many covers and augmenting paths tie, so these
# pin the max-flow kernel's search order and its per-edge flow.  Recorded
# from the Edmonds-Karp kernel over generic arc lists, before its search was
# written on the bipartite network's own state.
WIDE_PINNED = {
    ("exact", "thickness"): "86df634f8aa19c2d4476feb121ffc3a6107878aa",
    ("exact", "hall"): "ef638a044cb32daaef4d9486f73bbe6f1702fc79",
    ("float", "thickness"): "22ec776eefb70e1b55ccac8438fedae03431a4f9",
    ("float", "hall"): "fe2c5b6c9d36c175c46f7bc2fd004aa30a98e6e7",
}

# Exact step-fit reports on functions drawn as perfbench/workloads.py draws
# "v-6-0.csv" and "v-8-0.csv" (two of the benchmark's; v-10-0 and v-12-0 the
# same way, past the exact range).  Each `stepfit` in the exact range runs at
# the profile value, where no strict fit exists, and 1/24 above it.
# Recorded from the search that rebuilt every block's column ranges at each
# leaf of its row partitions, before the partial partitions were cut.
STEPFIT_PINNED = {
    "vcprofile v-6-0 2": "284de1ec5a71bc16b4e471c60059d92d74a86076",
    "vcprofile v-6-0 3": "78d1cdce2d28fbbe07377d640a0bbaa8f463f152",
    "vcprofile v-8-0 2": "a7c40f54ec00dadbd3073b42290ba5af374309ca",
    "vcprofile v-8-0 3": "a3c72623e8903d66ddb348802818831647579ede",
    "stepfit v-6-0 2 11/24": "dfa0ccc0743b0783a3b3bdb6a1d8515980ef6c73",
    "stepfit v-6-0 2 1/2": "9a61109e8bb3f588c65a82a2fe6090617a72a1c2",
    "stepfit v-6-0 3 2/7": "16df6d3265634742a881ba17f4e4bb5bc4d680d7",
    "stepfit v-6-0 3 55/168": "e91e216b8287853fe0bb38beeea3ca6fa30c9ec4",
    "stepfit v-8-0 2 10/19": "f24569d5f58111c5ad1a01be6a3ba7f717386982",
    "stepfit v-8-0 2 259/456": "f8a67914ed05ee9e61c39f73ddc7b863ff0702bd",
    "stepfit v-8-0 3 7/19": "83d6038e53174a30bfe8e8ea2dd49a9ce56919de",
    "stepfit v-8-0 3 187/456": "bd7974adaf02aa61560e781e7e1204306d0b6610",
    "refine separable_smooth 4,8": "91f3750001599a4e4138ce703a36c90bb22ba17a",
    "refine triangle_indicator 8,16": "044040c5158f795fb32eec5a0cf5411dee3d11d1",
    "refine metric_kernel 4,8": "7f1d1226284d8d685d5b06f0ac2e001081ba2673",
    # past 8 atoms per side, where the reports are the local search's: its
    # moves, restarts and witness; recorded before its row sweep was rewritten
    "vcprofile v-10-0 2": "49373c8c2e17e7ea3e075cf8af8aff525efe38d7",
    "vcprofile v-12-0 3": "e79b75ca5696440b3ad27a3a60f8afc279727f12",
    "stepfit v-12-0 2 1/4": "2f9b0dbb578e9be9861b7e5fa08021cfe4201d03",
    "refine separable_smooth 8,16": "79e23d607c32cc3ab148230b69ba1eb61f928ff0",
    "refine metric_kernel 8,16": "ae2e38e17852983af3057262d573829025cfb260",
}

# The same reports in float mode, where `stepfit` runs at the float profile
# value (its repr) and 1/24 above it.  Recorded from the search that ranked
# every half-gap and class weight in one sorted list, before it compared them
# on one scale (values as given, class weights doubled).
FLOAT_STEPFIT_PINNED = {
    "vcprofile v-6-0 2": "ef1489d00a9d8fe1ad548d9c0507e24fc4935bc9",
    "vcprofile v-6-0 3": "20b26b24ffdf6684caf82790d36e00522e7e7a69",
    "vcprofile v-8-0 2": "79d764e79dbcee1dcf841976b9cc1c100c37e960",
    "vcprofile v-8-0 3": "4736049c8d73e504d9c6113f7c52ece0d287f393",
    "stepfit v-6-0 2 0.45833333333333337": "c3db2204c3e6a2978abd59a98286196e64dddb81",
    "stepfit v-6-0 2 0.5": "2ff4e468df20f7ba552ab960a96d035758e887c6",
    "stepfit v-6-0 3 0.2857142857142857": "d13bc1f66d8d251f53574adbc22f3e95adb19f30",
    "stepfit v-6-0 3 0.3273809523809524": "0c3d29d1e6ca644e209e47c6b9fb9d29a0f0cdc0",
    "stepfit v-8-0 2 0.5263157894736842": "56b5ccffa7a5112e8aad24a4386474057dd5cc7f",
    "stepfit v-8-0 2 0.5679824561403508": "01e1967e2b921e59be103c1247edd59d05189a64",
    "stepfit v-8-0 3 0.368421052631579": "41f9628b40fae913119add433d23d270fe5b6b1e",
    "stepfit v-8-0 3 0.41008771929824567": "217c398e0ee8443fbe63d4cff8f414cd554dcfd3",
    # past 8 atoms per side, recorded with the exact group's five above
    "vcprofile v-10-0 2": "90aaa03abb44d8bde5b812fde2ff8c7ce9eeb074",
    "vcprofile v-12-0 3": "a1512663f3c451b105fb400bfb3cf8e455a544de",
    "stepfit v-12-0 2 1/4": "129225bf0fdbc5ee423b97edb45e8d81788695ce",
    "refine separable_smooth 8,16": "8a4d13610ad83fdebee6f4ac1100c857269b9ecc",
    "refine metric_kernel 8,16": "6c36840421dd8007b8b6f6cffb59048a9e45c563",
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


def _tie_corpus(tmp_path):
    rng = random.Random(2026)
    n = 20
    xs, ys = DiscreteSpace.uniform(n, "x"), rand_space(rng, n, "y")
    save_matrix(rand_function(rng, xs, ys, denom=1, lo=-2, hi=2),
                str(tmp_path / "f.csv"))
    cluster = [rng.randrange(5) for _ in range(n)]
    between = [[0] * 5 for _ in range(5)]
    for a in range(5):
        for b in range(a + 1, 5):
            between[a][b] = between[b][a] = rng.choice((1, 1, 2))
    rho = MetricMatrix(rand_space(rng, n, "p"),
                       [[between[cluster[i]][cluster[j]] for j in range(n)]
                        for i in range(n)])
    save_metric(rho, str(tmp_path / "rho.json"))
    mu1, mu2 = rand_weights(rng, n), rand_weights(rng, n)
    save_vector(mu1, str(tmp_path / "mu1.json"))
    save_vector(mu2, str(tmp_path / "mu2.json"))
    save_vector([a - b for a, b in zip(mu1, mu2)], str(tmp_path / "eta.json"))
    p = {name: str(tmp_path / name) for name in
         ("f.csv", "rho.json", "mu1.json", "mu2.json", "eta.json")}
    return {
        "srnorm": ["srnorm", p["f.csv"]],
        "transport": ["transport", p["rho.json"], p["mu1.json"], p["mu2.json"]],
        "krnorm": ["krnorm", p["rho.json"], p["eta.json"]],
    }


def _wide_corpus(tmp_path):
    rng = random.Random(2040)
    xs, ys = DiscreteSpace.uniform(40, "x"), rand_space(rng, 40, "y")
    path = str(tmp_path / "z40.csv")
    save_matrix(rand_set(rng, xs, ys, 0.08), path)
    return {"thickness": ["thickness", path], "hall": ["hall", path]}


def _report_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return hashlib.sha1(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("mode,command", sorted(PINNED))
def test_report_bytes_pinned(tmp_path, mode, command):
    argv = ["--mode", mode] + _corpus(tmp_path)[command]
    assert _report_digest(argv) == PINNED[(mode, command)]


@pytest.mark.parametrize("command", sorted(TIES_PINNED))
def test_tie_heavy_report_bytes_pinned(tmp_path, command):
    argv = ["--mode", "exact"] + _tie_corpus(tmp_path)[command]
    assert _report_digest(argv) == TIES_PINNED[command]


@pytest.mark.parametrize("mode,command", sorted(WIDE_PINNED))
def test_wide_cover_report_bytes_pinned(tmp_path, mode, command):
    argv = ["--mode", mode] + _wide_corpus(tmp_path)[command]
    assert _report_digest(argv) == WIDE_PINNED[(mode, command)]


def _stepfit_argv(tmp_path, key):
    command, *rest = key.split()
    if command == "refine":
        family, grids = rest
        return ["refine", "--family", family, "--grids", grids, "--blocks", "2"]
    name, blocks, *eps = rest
    rng = random.Random(f"fixed:{name}.csv")
    n = int(name.split("-")[1])
    path = str(tmp_path / f"{name}.csv")
    save_matrix(rand_function(rng, rand_space(rng, n, "x"), rand_space(rng, n, "y")),
                path)
    argv = [command, path, "--blocks", blocks]
    return argv + ["--eps", eps[0]] if eps else argv


@pytest.mark.parametrize("key", sorted(STEPFIT_PINNED))
def test_stepfit_report_bytes_pinned(tmp_path, key):
    argv = ["--mode", "exact"] + _stepfit_argv(tmp_path, key)
    assert _report_digest(argv) == STEPFIT_PINNED[key]


@pytest.mark.parametrize("key", sorted(FLOAT_STEPFIT_PINNED))
def test_float_stepfit_report_bytes_pinned(tmp_path, key):
    argv = ["--mode", "float"] + _stepfit_argv(tmp_path, key)
    assert _report_digest(argv) == FLOAT_STEPFIT_PINNED[key]


# Step-fit reports on tie-heavy functions: values in {0, 1, 2} on uniform
# spaces, so that many configurations attain the optimum and the witness is
# the exact search's first optimal one in its enumeration order.  Each
# `stepfit` runs at the profile value and 1/97 above it; in float mode at the
# float profile value (its repr) and that plus 1/97.  Recorded from the
# search that took each column subset's diameter from a table of the ranges
# of its column pairs.
TIE_STEPFIT_PINNED = {
    "exact stepfit t-5x5 2 199/485": "4dbaa6d052578eb1ebaad521f7bd7a7847f46865",
    "exact stepfit t-5x5 2 2/5": "7e9519b4cae289c191173a945c6de0b3cece3440",
    "exact stepfit t-5x5 3 199/485": "69fc0d4035d09591d9c77830fcb85b7420dba788",
    "exact stepfit t-5x5 3 2/5": "0f78bd53869591b4e9cf1212ae11b7b24d5434f9",
    "exact stepfit t-6x8 2 1/2": "c7d3357a538c2f0465810907a7adf2f93aa7a94a",
    "exact stepfit t-6x8 2 99/194": "d2c93707fde28d543085d5fce70b93e65d493576",
    "exact stepfit t-6x8 3 1/2": "6a1d5421b4b82aeb9c948220e798702bd7df8e93",
    "exact stepfit t-6x8 3 99/194": "fbf60f2e55597c039e8a897aa092e9ba775f4e86",
    "exact stepfit t-8x6 2 1/2": "9d21b97438637bc433e111bc3a38a260a4114a1a",
    "exact stepfit t-8x6 2 99/194": "bb2c85edcc779299b7dbb7b54a6c396ca2b58abc",
    "exact stepfit t-8x6 3 1/2": "918ca5b702ca27d4ebc69284ec27f98d762f1bc5",
    "exact stepfit t-8x6 3 99/194": "0a98c7ad03215aaabeddac064dd566efbf4d13ee",
    "exact stepfit t-8x8 2 1/2": "954af2cf4f9fd70407547d5ad70c76167f1873bf",
    "exact stepfit t-8x8 2 99/194": "380d0f91d1dfc580eb7072bfe8be9f24a4e28284",
    "exact stepfit t-8x8 3 1/2": "73475dd3feb29d21a67a4bff7bd7c4059c335ee3",
    "exact stepfit t-8x8 3 99/194": "308b4906e3d2db70d3dc1c753edbe5da6cc8d405",
    "exact vcprofile t-5x5 2": "b3ffd0873a002f45a4ebf2e6bee97262f8b4b3fb",
    "exact vcprofile t-5x5 3": "11ee022a5d2aea5047653739aac2f16d305e74db",
    "exact vcprofile t-6x8 2": "2816afe96de14a93c652a9a14f1e76b61e3c425e",
    "exact vcprofile t-6x8 3": "ac04765ccd1c3f6f2daf54e1b950aaa23b62895a",
    "exact vcprofile t-8x6 2": "b2f085092b10dc03b0588fedcdf66cb42461188b",
    "exact vcprofile t-8x6 3": "dfe83f3a4e2fa51f691cac46f96b9fd99ddfc040",
    "exact vcprofile t-8x8 2": "09fdde7b37c0a2c7c894c685221eb494e27f1823",
    "exact vcprofile t-8x8 3": "b1b52c154e85eb1885eb85ddcbc21be2f8a0452d",
    "float stepfit t-5x5 2 0.4": "44cf747f5b5f218b8737511b26e19107641645a3",
    "float stepfit t-5x5 2 0.4103092783505155": "8c2262b961e000c092cd5022d4a5b20b21e8a413",
    "float stepfit t-5x5 3 0.4": "63637124b124f95c19a59d2fe4677399a1010262",
    "float stepfit t-5x5 3 0.4103092783505155": "5840f8861507cb2a47e79a70605f981aed20ef8d",
    "float stepfit t-6x8 2 0.5": "07ecf7f498f40e384c61f245aaded04aa99ef7be",
    "float stepfit t-6x8 2 0.5103092783505154": "23e2f2e97abe2ac52b1a02471f32de48a67c6d18",
    "float stepfit t-6x8 3 0.5": "3588bd5f4dc96bea7e6ba64f8c2b290e23f27e4a",
    "float stepfit t-6x8 3 0.5103092783505154": "f36754dfb9c6585b6bfb2d98dcbc2de063a762f8",
    "float stepfit t-8x6 2 0.5": "d489b7c1186cdaed203a988e87304dd3d0a521bd",
    "float stepfit t-8x6 2 0.5103092783505154": "6c7e0486a8b0d71dcf7936ec89993e3f4a880388",
    "float stepfit t-8x6 3 0.5": "b092a3827e1776ba52f796af95c2e75f7e47ed18",
    "float stepfit t-8x6 3 0.5103092783505154": "f0bfb69bee9b40b8b55f3f55699f2d4bee8330b0",
    "float stepfit t-8x8 2 0.5": "1d5396a8b459d8e3950f3be5d42b6f536defca63",
    "float stepfit t-8x8 2 0.5103092783505154": "3040955b676c4c2620da6aedbf62257506b4887f",
    "float stepfit t-8x8 3 0.5": "19e6b3a82abbec41bab3fe3bd063b47ff63c9e75",
    "float stepfit t-8x8 3 0.5103092783505154": "67036b36e299764a8a43ca6ced4915a519d20040",
    "float vcprofile t-5x5 2": "10189d8ff4c084d13ec6022ff4024dc42e02bda0",
    "float vcprofile t-5x5 3": "ab510370df8339ef5537dc0914340ea911035f45",
    "float vcprofile t-6x8 2": "750f63e3a257204a87c42ee74911ab94dabd93e4",
    "float vcprofile t-6x8 3": "3324c5dbc4f86342a0c88b329bf2199aa5fee767",
    "float vcprofile t-8x6 2": "d5ba85027c4d43f520e2bd0dd0ba13a5dd4ca932",
    "float vcprofile t-8x6 3": "99c9743a714d3336338e2a66aa1b3187112f5c3d",
    "float vcprofile t-8x8 2": "53b5c86a988d912717b2452e01743c995ce69f2a",
    "float vcprofile t-8x8 3": "c325798355afc075e367d872f70014542d41add6",
}


def _tie_stepfit_argv(tmp_path, key):
    mode, command, name, blocks, *eps = key.split()
    nr, nc = map(int, name[2:].split("x"))
    rng = random.Random(f"ties:{name}")
    path = str(tmp_path / f"{name}.csv")
    save_matrix(rand_function(rng, DiscreteSpace.uniform(nr, "x"),
                              DiscreteSpace.uniform(nc, "y"), denom=1, lo=0, hi=2),
                path)
    return ["--mode", mode, command, path, "--blocks", blocks] + (
        ["--eps", eps[0]] if eps else [])


@pytest.mark.parametrize("key", sorted(TIE_STEPFIT_PINNED))
def test_tie_heavy_stepfit_report_bytes_pinned(tmp_path, key):
    assert _report_digest(_tie_stepfit_argv(tmp_path, key)) == TIE_STEPFIT_PINNED[key]


# Matrix-distribution reports on `_corpus`'s rho.json and on a metric drawn as
# perfbench/workloads.py draws "rho-8.json": the exact law at orders 1 and 2,
# the float law at order 2, and 2000 seeded samples.  Recorded from the
# enumeration that multiplied and summed Fraction weights and sorted the
# matrices as tuples of Fractions, before it ran on the integer scale.
MATDIST_PINNED = {
    "exact rho 1": "fd7183de1628adb42de7f928eb06e7f55c7d4307",
    "exact rho 2": "eaca0c2a9f550f4b32a536daf67e745ecef13d43",
    "exact rho-8 1": "9e0ec767d1b2361ccc8e2537d714d0d50c4856b1",
    "exact rho-8 2": "7e1c304808bc77d952e5db146438a2f905a02377",
    "float rho 2": "41b0c8b416b046d100426f97de719032d8c79097",
    "float rho-8 2": "d437fdbe0bbfd82fcebd46a7c6c1e4a71a646694",
    "exact rho-8 2 samples": "9314424f3630b079ee875f2446864bcea6b40c09",
}


def _matdist_argv(tmp_path, key):
    mode, name, order, *samples = key.split()
    if name == "rho":
        path = _corpus(tmp_path)["transport"][1]
    else:
        rng = random.Random(f"fixed:{name}.json")
        path = str(tmp_path / f"{name}.json")
        save_metric(rand_metric(rng, rand_space(rng, 8, "p")), path)
    argv = ["--mode", mode, "matdist", path, "--order", order]
    return argv + ["--samples", "2000", "--seed", "0"] if samples else argv


@pytest.mark.parametrize("key", sorted(MATDIST_PINNED))
def test_matdist_report_bytes_pinned(tmp_path, key):
    assert _report_digest(_matdist_argv(tmp_path, key)) == MATDIST_PINNED[key]


# Float reports of the transport kinds, on instances drawn as
# perfbench/workloads.py draws "h-<n>-<c>.csv" and "rho-<n>-<c>.json" (with
# its "mu1", "mu2" and "eta" vectors).  Recorded from the Bellman-Ford search
# that scanned every arc in every round and formed each reduced cost where
# it used it, before a pass whose trace meets a cycle was searched again.
# These instances finished there; on the two below it ran out of memory.
# The two largest, "h-40-0" and "rho-40-0", were recorded later, from the
# search that ends at the first round leaving a cycle and searches again,
# which on "krnorm rho-40-0" it does, before the search formed its reduced
# costs where it scans them and kept the plan's support between passes.
FLOAT_TRANSPORT_PINNED = {
    "srnorm h-10-0": "09e88055bea3b7e2f7468be822019c7cc9ecd341",
    "srnorm h-20-0": "408ea6b2cf020d816242c4bd7c4308e10d8b49bd",
    "srnorm h-40-0": "4370bb2e7926677eaffd00e1c42ec54021191eda",
    "krnorm rho-40-0": "f94fa1a5e0468408c8ac0f430d98bc8fff93fff2",
    "transport rho-10-2": "ce74b1e36470db496fc09e9f576d4b5bc11378ca",
    "krnorm rho-10-2": "b53b5aa17e6a10d45f9e4a3a2e117c60d6d03add",
    "transport rho-20-0": "5f4b724b015eb1bfef5a096376c3e76063ebc490",
    "krnorm rho-20-0": "afb1870c6011aac4b53015a37de83936944b45ee",
}

# Float reports of the same kinds and draws whose last bits moved when each
# search began to end at the first round that leaves a cycle in its
# predecessors, and the pass was searched again at once with a margin scaled
# to the costs.  The search before ran all its rounds and searched again only
# if the path traced back from the sink met the cycle, and on these two
# instances kept a strict search that had closed one.  Recorded from the
# search that ends at the first cycle; both reports pass `check` and agree
# with perfbench/refs.json within 1e-9.
FLOAT_RETRY_PINNED = {
    "srnorm h-20-2": "31bdd7f0474819ba192a6363cd753386c938cb71",
    "transport rho-20-1": "5e1b2f1477aae4f184dadca607348957cd2c7dda",
}

FLOAT_TRANSPORT_ALL_PINNED = {**FLOAT_TRANSPORT_PINNED, **FLOAT_RETRY_PINNED}

# A round-off cycle in the strict search's predecessors on these instances
# made that search's path trace grow until memory ran out.
FLOAT_TRANSPORT_CYCLED = ("transport rho-10-0", "krnorm rho-20-1")


def _transport_argv(tmp_path, key):
    command, name = key.split()
    n = int(name.split("-")[1])
    if command == "srnorm":
        rng = random.Random(f"fixed:{name}.csv")
        path = str(tmp_path / f"{name}.csv")
        save_matrix(rand_function(rng, rand_space(rng, n, "x"),
                                  rand_space(rng, n, "y")), path)
        return [command, path]
    rng = random.Random(f"fixed:{name}.json")
    rho = rand_metric(rng, rand_space(rng, n, "p"))
    mu1, mu2 = rand_weights(rng, n), rand_weights(rng, n)
    p = {f: str(tmp_path / f) for f in ("rho.json", "mu1.json", "mu2.json", "eta.json")}
    save_metric(rho, p["rho.json"])
    save_vector(mu1, p["mu1.json"])
    save_vector(mu2, p["mu2.json"])
    save_vector([a - b for a, b in zip(mu1, mu2)], p["eta.json"])
    if command == "transport":
        return [command, p["rho.json"], p["mu1.json"], p["mu2.json"]]
    return [command, p["rho.json"], p["eta.json"]]


@pytest.mark.parametrize("key", sorted(FLOAT_TRANSPORT_ALL_PINNED))
def test_float_transport_report_bytes_pinned(tmp_path, key):
    argv = ["--mode", "float"] + _transport_argv(tmp_path, key)
    assert _report_digest(argv) == FLOAT_TRANSPORT_ALL_PINNED[key]


@pytest.mark.parametrize("key", FLOAT_TRANSPORT_CYCLED)
def test_float_transport_that_cycled_certifies_near_the_exact_value(tmp_path, key):
    argv = _transport_argv(tmp_path, key)
    reports = {}
    for mode in ("float", "exact"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["--mode", mode] + argv) == 0
        reports[mode] = json.loads(buf.getvalue())
    report = tmp_path / "report.json"
    report.write_text(json.dumps(reports["float"]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(report)]) == 0
    value = "cost" if argv[0] == "transport" else "value"
    got, exact = float(reports["float"][value]), Fraction(reports["exact"][value])
    assert abs(got - exact) <= 1e-9


@pytest.mark.parametrize("key", FLOAT_TRANSPORT_CYCLED)
def test_a_float_search_that_cycles_again_exits_2(tmp_path, key):
    # with EPS 0 the retry's margin EPS * max(1, max|cost|) is 0, so the
    # search again is the strict search, which ends at the same round with
    # the same cycle; a process of its own, with a capped address space,
    # so that a search that followed a cycle without end would raise
    # MemoryError instead of taking the host's memory
    argv = ["--mode", "float"] + _transport_argv(tmp_path, key)
    script = ("import resource, sys; from virtcont import flows; "
              "from virtcont.cli import main; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "flows.EPS = 0.0; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "MemoryError" not in proc.stderr


# `--format text` and `--format csv` renderings of draws pinned above, in
# both modes: `_corpus`'s reports, the step-fit group's "vcprofile v-6-0 2"
# and `check` of `_corpus`'s thickness report.  Recorded from the CLI that
# rendered the dict its self-check had checked, before the self-check and
# the renderings both read the report back from its JSON text.
RENDER_PINNED = {
    "csv exact hall": "430f092f7bfff871e3c13334b0b621e59e04573a",
    "csv exact thickness": "559402e586f5426c5ec4d25069c28fd168ff2019",
    "csv exact transport": "6dbd062e568477437f0f4d832b828f9fe27e13ee",
    "csv float hall": "a8eee1046b77b28271bee39dc3fae2e551557ad1",
    "csv float thickness": "5808c7f19a72266b66646fc38e092f3afb97f506",
    "csv float transport": "467ca5835e565221e66341ea45317c257cccd134",
    "text exact check": "f65f8e279e79cda4e7d0db6e11edf851bd0e2dcb",
    "text exact hall": "ec19ce5cc3290d846b6a4a31717055a445803181",
    "text exact krnorm": "0f93eacb503f3c5c11321ee2fc436f1f119d0163",
    "text exact srnorm": "5fb96d73ce6b14ae9849d349cdcb4d54eba632c0",
    "text exact tau": "2d57660e074c5483fc32545a319b652d7e2962d6",
    "text exact thickness": "07fd90532645cf82eaeadd9398a3215ab91214f6",
    "text exact transport": "4011143d339b104dcbd856229ecb44a197cb235d",
    "text exact vcprofile": "ea12c9f41fbf35cf9807854ea1ff0667c60566a6",
    "text float check": "03048a712caf16ebc06f51648fd456ebe8709176",
    "text float hall": "7e5916fdfb728239b6379b26cdff5579c3ef3aed",
    "text float krnorm": "67fa9395a3dfd0048014aefbd048fbb568c88e39",
    "text float srnorm": "cc3e71ab61312f6ba092ee41783d6de1212e1da7",
    "text float tau": "49e18596605b058d640afed9f4d111a6d2319780",
    "text float thickness": "8a4566471cde5ef671ebf2e77305bea80ac06527",
    "text float transport": "f07af95b277418fc3814dd5ffd4390c769e8a1cf",
    "text float vcprofile": "5605f679c1b7427998ab17221f265031b5c074fd",
}


def _render_argv(tmp_path, key):
    fmt, mode, command = key.split()
    if command == "vcprofile":
        argv = _stepfit_argv(tmp_path, "vcprofile v-6-0 2")
    elif command == "check":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["--mode", mode] + _corpus(tmp_path)["thickness"]) == 0
        report = tmp_path / "report.json"
        report.write_text(buf.getvalue())
        argv = ["check", str(report)]
    else:
        argv = _corpus(tmp_path)[command]
    return ["--mode", mode, "--format", fmt] + argv


@pytest.mark.parametrize("key", sorted(RENDER_PINNED))
def test_text_and_csv_renderings_pinned(tmp_path, key):
    assert _report_digest(_render_argv(tmp_path, key)) == RENDER_PINNED[key]
