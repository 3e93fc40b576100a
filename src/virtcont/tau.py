"""The tau-distance between product functions: convergence "in thickness".

tau(f, g) is the least eps such that the set where |f - g| > eps has
thickness at most eps.  On atomic spaces the exceedance set only changes at
the finitely many distinct values of |f - g|, so the infimum is attained at
a breakpoint.  The exceedance sets are nested, so one warm-started max-flow
sweeps them from the top breakpoint down and gives every one's thickness
(`thickness.exceedance_thicknesses`); a scan over the breakpoints then takes
the minimum.  In exact mode |f - g|, its levels and their thicknesses are
ints on one scale, and only the value and the witness become Fractions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .model import Number, ProductFunction, ValidationError, level_set
from .thickness import exceedance_thicknesses, thickness


@dataclass
class TauResult:
    value: Number
    witness_set_thickness: Number  # th({|f-g| > value})


def tau_distance(f: ProductFunction, g: ProductFunction) -> TauResult:
    """Exact tau(f, g) from the breakpoint sweep.

    On [v_k, v_{k+1}) the exceedance set {|f-g| > eps} is constant, equal to
    {|f-g| > v_k}; on that interval the best feasible eps is
    max(v_k, th_k), th_k = th({|f-g| > v_k}).  Minimizing over breakpoints
    gives tau, and the witness is th_k at the largest v_k <= tau.  f and g
    must be over the same spaces (`ProductFunction.sub`).
    """
    levels, ths, d = exceedance_thicknesses(f.sub(g).abs())
    best = min(map(max, levels, ths))
    witness = ths[bisect_right(levels, best) - 1]
    if d is None:
        return TauResult(best, witness)
    return TauResult(Fraction(best, d), Fraction(witness, d))


def tau_ball_check(f: ProductFunction, g: ProductFunction, eps: Number) -> bool:
    """True iff th({|f-g| > eps}) <= eps."""
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    d = f.sub(g).abs()
    return thickness(level_set(d, eps, ">")).value <= eps
