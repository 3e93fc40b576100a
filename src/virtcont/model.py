"""Core data model: discrete measure spaces, product functions/sets, plans, metrics.

All quantities live on finite atomic probability spaces.  Numbers are either
`fractions.Fraction` (exact mode) or `float` (tolerance mode); every operation
is agnostic to which one it gets.  Objects are immutable after construction.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain, compress, repeat
from math import isfinite, lcm
from operator import add, ge, le, sub
from typing import Iterable, Sequence, Union

Number = Union[Fraction, float, int]

DEFAULT_TOL = 1e-9
# float values below EPS count as zero inside the kernels; tolerances on
# inputs and certificates are DEFAULT_TOL or the caller's tol
EPS = 1e-12


def parse_number(text: str, exact: bool = True) -> Number:
    """Parse a numeric literal, accepting 'p/q' rationals and decimal strings.
    An ASCII '[-]digits[/digits]' literal, denominator nonzero, skips Fraction's
    regex: int() reads it, and p / q rounds as float(Fraction(s)) does.  An
    exact value must print back: see `_exact_decimal`."""
    s = str(text).strip()
    if not exact and "/" not in s:
        return float(s)
    p, slash, q = s.partition("/")
    if s.isascii() and p.removeprefix("-").isdigit() and (q.isdigit() or not slash):
        p, q = int(p), int(q or 1)     # int() holds each to the digit limit
        if q:
            return Fraction(p, q) if exact else p / q
    return _exact_decimal(s) if exact else float(Fraction(s))


# the exponent of a decimal literal, as Fraction's regex reads it since
# Python 3.11 (3.10 takes no "_" there): s with each of its digits made 0
# is a literal of the same characters, valid in any version exactly when s is
_EXPONENT = re.compile(r"[eE]([-+]?\d+(_\d+)*)\s*\Z")
_DIGIT = re.compile(r"\d")


# Pythons before 3.10.7 have no limit: they print ints of any length
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


@lru_cache(maxsize=1)     # the limit is set once per process, as a rule
def _digit_bound(limit: int) -> int:
    return 10 ** limit


def _past_digit_limit(limit: int) -> ValueError:
    return ValueError(f"Exceeds the limit ({limit} digits) for integer string "
                      "conversion of a numerator or denominator")


def _exact_decimal(s: str) -> Fraction:
    """Fraction(s), refused if its numerator or denominator has more digits
    than `sys.get_int_max_str_digits()` lets str() print (no bound if it is
    0): every exact value read can be written back.

    An exponent E is weighed before 10 ** |E| is formed.  If the mantissa
    x (s at exponent 0) has c bits in numerator and denominator together,
    x * 10**E has a numerator above 10**(E - c) and a denominator above
    10**(-E - c), so |E| >= limit + c is past the limit for any x != 0.
    Below that, Fraction(s) forms a power of fewer than limit + c digits.
    """
    limit = _int_max_str_digits()
    m = _EXPONENT.search(s) if limit and "/" not in s else None
    if m:
        try:    # valid exactly when s is, and read as far as s is first
            x = Fraction(s[:m.start(1)] + _DIGIT.sub("0", m.group(1)) + s[m.end(1):])
            e = int(m.group(1))
        except ValueError:
            x = None    # Fraction(s) fails, in its own words, before any power
        if x == 0:
            return x    # zero at any exponent
        if x is not None and abs(e) >= (limit + x.numerator.bit_length()
                                        + x.denominator.bit_length()):
            raise _past_digit_limit(limit)
    x = Fraction(s)
    if limit and max(abs(x.numerator), x.denominator) >= _digit_bound(limit):
        raise _past_digit_limit(limit)
    return x


def left_sum(values: Iterable[Number], start: Number = 0) -> Number:
    """sum() added strictly left to right.  Since Python 3.12 `sum()` of
    floats is compensated, so float results would depend on the version."""
    return reduce(add, values, start)


# by concrete type where known: isinstance against Fraction, an ABC, runs in Python
_EXACT = {float: False, int: True, bool: True, Fraction: True}


def is_exact(x: Number) -> bool:
    exact = _EXACT.get(type(x))
    return isinstance(x, (Fraction, int)) if exact is None else exact


def all_exact(values: Iterable[Number]) -> bool:
    return all(map(isinstance, values, repeat((Fraction, int))))


def all_finite(values: Iterable[Number]) -> bool:
    """All exact, or all finite as floats, in one C-level pass."""
    values = list(values)
    try:
        return all_exact(values) or all(map(isfinite, values))
    except OverflowError:   # an int or Fraction among floats fits no float
        return False


def zero_of(values: Iterable[Number]) -> Number:
    """The zero of the values' regime: Fraction(0) if all are exact, else 0.0."""
    return Fraction(0) if all_exact(values) else 0.0


def common_integers(values: Iterable[Number]):
    """Rational values as Python ints over their least common denominator.

    Returns (ints, d) with values[k] == Fraction(ints[k], d).  Scaling by a
    positive constant preserves every sum, difference, comparison and tie,
    so an algorithm run on the ints takes exactly the steps it takes on the
    Fractions, at int speed; divide its results by d once at the end.
    Returns (values, None) if any value is a float: float mode runs as given.
    """
    values = list(values)
    if not all_exact(values):
        return values, None
    ids = list(map(id, values))     # one ratio per object the list keeps alive
    ratios = {k: v.as_integer_ratio() for k, v in dict(zip(ids, values)).items()}
    d = lcm(*{q for _, q in ratios.values()})
    ints = {k: p * (d // q) for k, (p, q) in ratios.items()}
    return list(map(ints.__getitem__, ids)), d


def common_scales(tol: float, *groups):
    """Each group of number sequences as ints over the group's own least
    common denominator: the pattern of the kernels, for the verifiers.

    A group is a list of sequences (the rows of a matrix count as sequences
    of their own); each comes back as a list, with x == Fraction(k, d) for
    its group's scale d.  Sums and comparisons inside a group, and a sum of
    products of two groups set against a value times both scales, then
    decide exactly what the Fractions decide, at tolerance t = 0.  If any
    value is a float, every sequence comes back as the values given, every
    scale is 1 and t = tol: the same comparisons run on the floats.

    Returns (groups, scales, t).
    """
    groups = [[list(part) for part in group] for group in groups]
    scaled = [common_integers(chain(*group)) for group in groups]
    if any(d is None for _, d in scaled):
        return groups, [1] * len(groups), tol
    out = []
    for group, (ints, _) in zip(groups, scaled):
        parts, k = [], 0
        for part in group:
            parts.append(ints[k:k + len(part)])
            k += len(part)
        out.append(parts)
    return out, [d for _, d in scaled], 0


def unscaled(x: Number, d: int) -> Number:
    """A scaled int back over its scale d, a float (whose scale is 1) as it
    is: a sum or a number for a message, in the units of the values."""
    return Fraction(x, d) if isinstance(x, int) else x


def to_scale(values: Iterable[Number], d) -> list:
    """Exact values as ints over d, a common multiple of their denominators;
    floats (d None, as `common_integers` gives it) as they are."""
    if d is None:
        return list(values)
    return [x.numerator * (d // x.denominator) for x in values]


def from_scale(rows, d) -> list:
    """Rows of ints over the scale d as rows of Fractions, one Fraction per
    distinct int; rows of floats (d None) as they are."""
    if d is None:
        return list(map(list, rows))
    fraction = {k: Fraction(k, d) for k in set(chain.from_iterable(rows))}
    return [list(map(fraction.__getitem__, row)) for row in rows]


def close(a: Number, b: Number, tol: float = DEFAULT_TOL) -> bool:
    """Equality in the active regime: exact if both operands are rational."""
    if is_exact(a) and is_exact(b):
        return a == b
    # equal infinities too, whose difference is NaN
    return a == b or abs(a - b) <= tol


def nonneg(x: Number, tol: float = DEFAULT_TOL) -> bool:
    if is_exact(x):
        return x >= 0
    return x >= -tol


class ValidationError(ValueError):
    """A model invariant is violated."""


@dataclass(frozen=True)
class DiscreteSpace:
    """A finite measure space: atoms with strictly positive weights summing to 1."""

    labels: tuple
    weights: tuple

    def __init__(self, labels: Sequence, weights: Sequence[Number]):
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "weights", tuple(weights))

    @property
    def size(self) -> int:
        return len(self.labels)

    def total(self) -> Number:
        return left_sum(self.weights)

    @staticmethod
    def uniform(n: int, prefix: str = "a") -> "DiscreteSpace":
        w = Fraction(1, n)
        return DiscreteSpace([f"{prefix}{i}" for i in range(n)], [w] * n)


def validate_space(space: DiscreteSpace) -> list[str]:
    """Return the list of violated invariants (empty list means pass); the
    weights compare as in `validate_semimetric`."""
    if len(space.labels) != len(space.weights):
        return ["label/weight count mismatch"]
    if space.size == 0:
        return ["space has no atoms"]
    ((ws,),), (d,), t = common_scales(DEFAULT_TOL, [space.weights])
    problems = [f"nonpositive weight at index {i}"
                for i, w in enumerate(ws) if w <= t]
    if not abs(left_sum(ws) - d) <= t:
        problems.append(f"weights sum != 1 (sum = {space.total()})")
    if len(set(space.labels)) != len(space.labels):
        problems.append("duplicate label")
    return problems


def require_valid_space(space: DiscreteSpace) -> None:
    problems = validate_space(space)
    if problems:
        raise ValidationError("; ".join(problems))


@dataclass(frozen=True)
class ProductFunction:
    """A real value per atom pair: f(x_i, y_j) on X x Y."""

    x_space: DiscreteSpace
    y_space: DiscreteSpace
    values: tuple  # tuple of row tuples

    def __init__(self, x_space, y_space, values):
        rows = tuple(tuple(row) for row in values)
        if len(rows) != x_space.size or any(len(r) != y_space.size for r in rows):
            raise ValidationError("function matrix dimensions do not match factors")
        if not all_finite(chain.from_iterable(rows)):
            raise ValidationError("non-finite function value")
        object.__setattr__(self, "x_space", x_space)
        object.__setattr__(self, "y_space", y_space)
        object.__setattr__(self, "values", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_space.size, self.y_space.size)

    def __getitem__(self, ij):
        i, j = ij
        return self.values[i][j]

    def map(self, fn) -> "ProductFunction":
        return ProductFunction(
            self.x_space, self.y_space,
            [[fn(v) for v in row] for row in self.values],
        )

    def abs(self) -> "ProductFunction":
        return self.map(abs)

    def sub(self, other: "ProductFunction") -> "ProductFunction":
        _check_same_factors(self, other)
        return ProductFunction(
            self.x_space, self.y_space,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.values, other.values)],
        )

    def add(self, other: "ProductFunction") -> "ProductFunction":
        _check_same_factors(self, other)
        return ProductFunction(
            self.x_space, self.y_space,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.values, other.values)],
        )

    def scale(self, c: Number) -> "ProductFunction":
        return self.map(lambda v: c * v)

    @staticmethod
    def constant(x_space, y_space, c: Number) -> "ProductFunction":
        return ProductFunction(x_space, y_space,
                               [[c] * y_space.size for _ in range(x_space.size)])


def _check_same_factors(a, b):
    if a.x_space.size != b.x_space.size or a.y_space.size != b.y_space.size:
        raise ValidationError("factor dimension mismatch")


@dataclass(frozen=True)
class ProductSet:
    """A subset of X x Y given by a boolean membership matrix."""

    x_space: DiscreteSpace
    y_space: DiscreteSpace
    membership: tuple

    def __init__(self, x_space, y_space, membership):
        rows = tuple(map(tuple, membership))
        if not set(map(type, chain.from_iterable(rows))) <= {bool}:
            rows = tuple(tuple(map(bool, row)) for row in rows)
        self._set(x_space, y_space, rows)

    @classmethod
    def of_bools(cls, x_space, y_space, rows) -> "ProductSet":
        """The set of rows whose cells are bools already, as `fileio` maps
        them: the cells are not scanned again."""
        z = object.__new__(cls)
        z._set(x_space, y_space, tuple(map(tuple, rows)))
        return z

    def _set(self, x_space, y_space, rows):
        if len(rows) != x_space.size or any(len(r) != y_space.size for r in rows):
            raise ValidationError("set matrix dimensions do not match factors")
        object.__setattr__(self, "x_space", x_space)
        object.__setattr__(self, "y_space", y_space)
        object.__setattr__(self, "membership", rows)

    def cells(self):
        """The member cells (i, j), row by row, left to right."""
        cols = range(self.y_space.size)
        return chain.from_iterable(zip(repeat(i), compress(cols, row))
                                   for i, row in enumerate(self.membership))

    def on_set(self, rows):
        """The values of a matrix at the member cells, in the order of
        `cells`: a sum of them adds left to right as a sum over `cells` does."""
        return chain.from_iterable(map(compress, rows, self.membership))

    def is_empty(self) -> bool:
        return not any(any(row) for row in self.membership)

    @staticmethod
    def empty(x_space, y_space) -> "ProductSet":
        return ProductSet.of_bools(x_space, y_space,
                                   [[False] * y_space.size] * x_space.size)

    @staticmethod
    def full(x_space, y_space) -> "ProductSet":
        return ProductSet.of_bools(x_space, y_space,
                                   [[True] * y_space.size] * x_space.size)

    def union(self, other: "ProductSet") -> "ProductSet":
        _check_same_factors(self, other)
        return ProductSet(self.x_space, self.y_space,
                          [[a or b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.membership, other.membership)])

    def issubset(self, other: "ProductSet") -> bool:
        return all(not a or b for ra, rb in zip(self.membership, other.membership)
                   for a, b in zip(ra, rb))


@dataclass(frozen=True)
class SeparableMajorant:
    """A separable upper bound a(x) + b(y) >= |f(x,y)|, entries nonnegative."""

    a: tuple
    b: tuple

    def __init__(self, a: Sequence[Number], b: Sequence[Number]):
        a, b = tuple(a), tuple(b)
        # an entry is judged as a float, within DEFAULT_TOL, if any one is
        if all_exact(a + b):
            if min(a + b, default=0) < 0:
                raise ValidationError("negative majorant entry")
        elif not (all_finite(a + b) and min(a + b) >= -DEFAULT_TOL):
            raise ValidationError("negative or non-finite majorant entry")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def dominates(self, f: ProductFunction, tol: float = DEFAULT_TOL) -> bool:
        for i in range(f.x_space.size):
            for j in range(f.y_space.size):
                if not nonneg(self.a[i] + self.b[j] - abs(f[i, j]), tol):
                    return False
        return True

    def weight(self, x_space: DiscreteSpace, y_space: DiscreteSpace) -> Number:
        return (left_sum(w * v for w, v in zip(x_space.weights, self.a))
                + left_sum(w * v for w, v in zip(y_space.weights, self.b)))


@dataclass(frozen=True)
class Plan:
    """A nonnegative (or signed) mass per atom pair, with derived marginals.

    Bistochastic plans project onto mu and nu exactly; subbistochastic plans
    project below them componentwise.  A plan is carried on one integer
    scale: its weights and masses as ints over one common denominator d
    (`scaled`), which its own checks and the certificate verifiers compare
    on, and which the report writer prints as p/d.  A kernel and the report
    reader hand their ints over as they are (`of_scaled`); `Plan(x, y,
    mass)` first puts the masses on their scale (`common_scales`).  In exact
    mode `mass` is a Fraction view of the scaled rows, formed on first use;
    in float mode d = 1 and the masses are the floats as given.  The
    marginals and the total are summed from the scaled rows too: ints over
    d, divided by d once per sum, or the floats added left to right.
    """

    x_space: DiscreteSpace
    y_space: DiscreteSpace
    signed: bool = field(default=False)
    _scaled: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, x_space, y_space, mass, signed: bool = False):
        ((xw, yw, *rows),), (d,), t = common_scales(
            DEFAULT_TOL, [x_space.weights, y_space.weights, *mass])
        self._set(x_space, y_space, xw, yw, rows, None if t else d, signed)

    @classmethod
    def of_scaled(cls, x_space, y_space, xw, yw, rows, d,
                  signed: bool = False) -> "Plan":
        """The plan whose weights and mass rows are xw, yw and rows on the
        scale d: ints over d, or floats as given if d is None.  Nothing is
        re-scaled; only the shape and the signs are tested."""
        plan = object.__new__(cls)
        plan._set(x_space, y_space, xw, yw, rows, d, signed)
        return plan

    def _set(self, x_space, y_space, xw, yw, rows, d, signed):
        rows = tuple(map(tuple, rows))
        if len(rows) != x_space.size or any(len(r) != y_space.size for r in rows):
            raise ValidationError("plan matrix dimensions do not match factors")
        t = DEFAULT_TOL if d is None else 0
        if not signed and not all(map(ge, chain.from_iterable(rows), repeat(-t))):
            raise ValidationError("negative mass in unsigned plan")
        object.__setattr__(self, "x_space", x_space)
        object.__setattr__(self, "y_space", y_space)
        object.__setattr__(self, "signed", signed)
        object.__setattr__(self, "_scaled", (xw, yw, rows, d or 1, d is not None))

    @cached_property
    def mass(self) -> tuple:
        """The mass rows in the weights' units: Fractions in exact mode."""
        _, _, rows, d, exact = self._scaled
        return tuple(map(tuple, from_scale(rows, d))) if exact else rows

    def __eq__(self, other):
        if not isinstance(other, Plan):
            return NotImplemented
        return ((self.x_space, self.y_space, self.mass, self.signed)
                == (other.x_space, other.y_space, other.mass, other.signed))

    def __repr__(self):
        return (f"Plan(x_space={self.x_space!r}, y_space={self.y_space!r}, "
                f"mass={self.mass!r}, signed={self.signed!r})")

    def scaled(self, tol: float = DEFAULT_TOL):
        """(x weights, y weights, mass rows, d, t): the weights and masses
        over their common denominator d, to compare at tolerance t, as
        `common_scales` returns them (floats as given, d = 1, t = tol)."""
        xw, yw, rows, d, exact = self._scaled
        return xw, yw, rows, d, 0 if exact else tol

    def is_over(self, x_space: DiscreteSpace, y_space: DiscreteSpace) -> bool:
        """False if the plan declares other spaces than those of what it
        certifies: its marginals are judged against its own spaces, so such
        a plan certifies nothing."""
        return self.x_space == x_space and self.y_space == y_space

    def row_marginals(self) -> list:
        _, _, rows, d, _ = self._scaled
        return [unscaled(left_sum(row), d) for row in rows]

    def col_marginals(self) -> list:
        _, _, rows, d, _ = self._scaled
        return [unscaled(left_sum(col), d) for col in zip(*rows)]

    def abs_row_marginals(self) -> list:
        return [left_sum(abs(v) for v in row) for row in self.mass]

    def abs_col_marginals(self) -> list:
        n = self.y_space.size
        return [left_sum(abs(row[j]) for row in self.mass) for j in range(n)]

    def total(self) -> Number:
        _, _, rows, d, _ = self._scaled
        return unscaled(left_sum(map(left_sum, rows)), d)

    def is_bistochastic(self, tol: float = DEFAULT_TOL) -> bool:
        xw, yw, rows, _, t = self.scaled(tol)
        return (all(abs(left_sum(r) - w) <= t for r, w in zip(rows, xw))
                and all(abs(left_sum(c) - w) <= t for c, w in zip(zip(*rows), yw)))

    @cached_property
    def abs_row_sums(self) -> tuple:
        """Each row's sum of |mass| on the plan's scale (`scaled`), added
        left to right: formed once, for the subbistochastic test and for a
        verifier that weighs the plan's mass off a set."""
        _, _, rows, _, _ = self._scaled
        return tuple(left_sum(map(abs, r)) for r in rows)

    def is_subbistochastic(self, tol: float = DEFAULT_TOL) -> bool:
        xw, yw, rows, _, t = self.scaled(tol)
        return (all(w - r >= -t for r, w in zip(self.abs_row_sums, xw))
                and all(w - left_sum(map(abs, c)) >= -t
                        for c, w in zip(zip(*rows), yw)))

    @staticmethod
    def product(x_space: DiscreteSpace, y_space: DiscreteSpace) -> "Plan":
        return Plan(x_space, y_space,
                    [[wx * wy for wy in y_space.weights] for wx in x_space.weights])

    @staticmethod
    def zero(x_space: DiscreteSpace, y_space: DiscreteSpace) -> "Plan":
        z = zero_of(x_space.weights + y_space.weights)
        return Plan(x_space, y_space,
                    [[z] * y_space.size for _ in range(x_space.size)])

    @staticmethod
    def diagonal(space: DiscreteSpace) -> "Plan":
        n = space.size
        zero = zero_of(space.weights)
        mass = [[zero] * n for _ in range(n)]
        for i, w in enumerate(space.weights):
            mass[i][i] = w
        return Plan(space, space, mass)


@dataclass(frozen=True)
class MetricMatrix:
    """A symmetric nonnegative distance matrix over one space's atoms."""

    space: DiscreteSpace
    dist: tuple

    def __init__(self, space, dist):
        rows = tuple(tuple(row) for row in dist)
        if len(rows) != space.size or any(len(r) != space.size for r in rows):
            raise ValidationError("distance matrix dimensions do not match space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "dist", rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.dist[i][j]


def validate_semimetric(m: MetricMatrix):
    """Classify a distance matrix.

    Returns ("metric", None), ("semimetric", None), or ("invalid", witness)
    where the witness names the violated axiom with concrete indices: the
    diagonal at i; then, per (i, j), a negative and then an asymmetric
    pair; then the first (i, j, k) with d_ij + d_jk < d_ik, as (i, k, j).
    The distances are compared on one integer scale (`common_scales`):
    exactly for rationals, within DEFAULT_TOL for floats.
    """
    (d,), _, t = common_scales(DEFAULT_TOL, m.dist)
    n = len(d)
    cells = list(chain.from_iterable(d))
    mirror = list(chain.from_iterable(zip(*d)))
    # the entry axioms screened at C speed; the loop only names a failure
    if not (all(map(le, map(abs, cells[::n + 1]), repeat(t)))
            and all(map(ge, cells, repeat(-t)))
            and all(map(le, map(abs, map(sub, cells, mirror)), repeat(t)))):
        return ("invalid", _entry_fault(d, t))
    # every distance is finite here (an inf or nan fails a test above), so
    # a min over k finds a violation; each gap sums d_ij + d_jk - d_ik in
    # that order, which decides a float within ulps of the tolerance.  If
    # d is exactly symmetric, the gap of (k, j, i) is that of (i, j, k), so
    # a violation at k < i shows at the earlier pair (k, j): the first pair
    # that fails has no failing k below i, and only k >= i is scanned.
    symmetric = cells == mirror
    for i, di in enumerate(d):
        lo = i if symmetric else 0
        tail = di[lo:]
        for j, (dij, dj) in enumerate(zip(di, d)):
            if min(map(sub, map(add, repeat(dij), dj[lo:]), tail)) < -t:
                k = next(k for k in range(lo, n) if dij + dj[k] - di[k] < -t)
                return ("invalid", ("triangle violation", i, k, j))
    # the n diagonal distances are zero within t: any other one makes d semi
    semimetric = sum(map(le, map(abs, cells), repeat(t))) > n
    return ("semimetric" if semimetric else "metric", None)


def _entry_fault(d, t):
    """The first failing entry axiom, in the order `validate_semimetric`
    names them."""
    n = len(d)
    for i in range(n):
        if not abs(d[i][i]) <= t:
            return ("nonzero diagonal", i)
        for j in range(n):
            if not d[i][j] >= -t:
                return ("negative distance", i, j)
            if not abs(d[i][j] - d[j][i]) <= t:
                return ("asymmetric pair", i, j)


def product_measure(z: ProductSet) -> Number:
    """mu x nu (Z): total product weight of the member cells."""
    mu, nu = z.x_space.weights, z.y_space.weights
    return left_sum(mu[i] * nu[j] for (i, j) in z.cells()) or zero_of(mu + nu)


def level_set(f: ProductFunction, threshold: Number, mode: str = ">") -> ProductSet:
    """The set where f compares to the threshold ('>' or '>=')."""
    if mode == ">":
        test = lambda v: v > threshold
    elif mode == ">=":
        test = lambda v: v >= threshold
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ProductSet(f.x_space, f.y_space,
                      [[test(v) for v in row] for row in f.values])
