"""The exceedance sweep: one warm-started max-flow gives th({f > v}) at the
zero and at every value v of f, equal bit for bit to one solve per level, in
both regimes; tau and the layer cake are read off it."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from virtcont import (DiscreteSpace, ProductFunction, ValidationError, flows,
                      layer_cake_integral, level_set, tau_distance, thickness)
from virtcont.model import zero_of
from virtcont.thickness import exceedance_thicknesses

from util import rand_function, rand_space, scan_layer_cake, scan_tau


def _pairs(weight, value):
    """Two functions up to 8 x 8 on shared spaces.  Their cells draw from a
    small pool of values, so level sets gain several cells at once."""
    @st.composite
    def pairs(draw):
        nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))

        def space(n, prefix):
            parts = [draw(st.integers(1, 9)) for _ in range(n)]
            return DiscreteSpace([f"{prefix}{i}" for i in range(n)],
                                 [weight(p, sum(parts)) for p in parts])

        xs, ys = space(nr, "x"), space(nc, "y")
        pool = draw(st.lists(value, min_size=1, max_size=8))
        cell = st.sampled_from(pool)
        return [ProductFunction(xs, ys, [[draw(cell) for _ in range(nc)]
                                         for _ in range(nr)])
                for _ in range(2)]
    return pairs()


# exact values with mixed denominators; floats spread over 1e-3..1e3
_EXACT = _pairs(Fraction, st.builds(Fraction, st.integers(-24, 24),
                                    st.sampled_from([1, 2, 3, 12, 997])))
_FLOAT = _pairs(lambda p, total: p / total,
                st.builds(lambda sign, e: sign * 10.0 ** e,
                          st.sampled_from([-1, 1]), st.floats(-3, 3)))


def _sweep_equals_per_level_solves(f, g):
    for h in (f.sub(g).abs(), f.abs()):
        values = [v for row in h.values for v in row]
        zero = zero_of(values)
        levels, swept = exceedance_thicknesses(h)
        assert levels == sorted({zero} | set(values))
        assert swept == [thickness(level_set(h, v, ">")).value for v in levels]
        assert all(type(a) is type(zero) for a in swept)
    res = tau_distance(f, g)
    assert (res.value, res.witness_set_thickness) == scan_tau(f, g)
    assert layer_cake_integral(f) == scan_layer_cake(f)


@given(_EXACT)
def test_exact_sweep_equals_per_level_solves(fg):
    _sweep_equals_per_level_solves(*fg)


@given(_FLOAT)
def test_float_sweep_equals_per_level_solves(fg):
    _sweep_equals_per_level_solves(*fg)


def test_one_kernel_run_per_job(monkeypatch):
    runs = []
    kernel = flows._max_flow_cover

    def counted(*args):
        runs.append(len(args[2]))   # the number of batches, one per level
        return kernel(*args)

    monkeypatch.setattr(flows, "_max_flow_cover", counted)
    rng = random.Random(11)
    for n, denom in ((1, 1), (4, 3), (9, 12), (12, 997)):
        xs, ys = rand_space(rng, n, "x"), rand_space(rng, n, "y")
        f, g = rand_function(rng, xs, ys, denom), rand_function(rng, xs, ys, denom)
        for job in (lambda: tau_distance(f, g), lambda: layer_cake_integral(f)):
            runs.clear()
            job()
            assert len(runs) == 1
    assert runs[0] > 100    # the last layer cake had that many levels


def test_zero_weight_is_rejected_once_a_level_set_is_nonempty():
    xs = DiscreteSpace(["x0", "x1"], [Fraction(0), Fraction(1)])
    ys = DiscreteSpace(["y0"], [Fraction(1)])
    f = ProductFunction(xs, ys, [[Fraction(1)], [Fraction(0)]])
    zero = ProductFunction.constant(xs, ys, Fraction(0))
    assert tau_distance(zero, zero).value == 0
    for job in (lambda: tau_distance(f, zero), lambda: layer_cake_integral(f)):
        with pytest.raises(ValidationError,
                           match="cover costs must be strictly positive"):
            job()
