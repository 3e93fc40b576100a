"""The tau-distance between product functions: convergence "in thickness".

tau(f, g) is the least eps such that the set where |f - g| > eps has
thickness at most eps.  On atomic spaces the exceedance set only changes at
the finitely many distinct values of |f - g|, so the infimum is attained and
found by a breakpoint scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Number, ProductFunction, ValidationError, level_set, zero_of
from .thickness import thickness


@dataclass
class TauResult:
    value: Number
    witness_set_thickness: Number  # th({|f-g| > value})


def _diff_abs(f: ProductFunction, g: ProductFunction) -> ProductFunction:
    if f.shape != g.shape:
        raise ValidationError("factor dimension mismatch")
    return f.sub(g).abs()


def tau_distance(f: ProductFunction, g: ProductFunction) -> TauResult:
    """Exact tau(f, g) via the breakpoint scan.

    On [v_k, v_{k+1}) the exceedance set {|f-g| > eps} is constant, equal to
    {|f-g| > v_k}; on that interval the best feasible eps is
    max(v_k, th({|f-g| > v_k})).  Minimizing over breakpoints gives tau.
    """
    d = _diff_abs(f, g)
    zero = zero_of(v for row in d.values for v in row)
    levels = sorted({zero} | {v for row in d.values for v in row})
    best = None
    for v in levels:
        th = thickness(level_set(d, v, ">")).value
        candidate = max(v, th)
        if best is None or candidate < best:
            best = candidate
    witness = thickness(level_set(d, best, ">")).value
    return TauResult(best, witness)


def tau_ball_check(f: ProductFunction, g: ProductFunction, eps: Number) -> bool:
    """True iff th({|f-g| > eps}) <= eps."""
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    d = _diff_abs(f, g)
    return thickness(level_set(d, eps, ">")).value <= eps
