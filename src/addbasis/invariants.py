"""Scalar invariants of finite sets and of removal pairs (A, X).

For a finite set X of integers:

    delta(X)  gcd of all pairwise differences
    diam(X)   max(X) - min(X)
    d(X)      diam(X) / delta(X), an exact rational

For an infinite set A containing X:

    eta(A, X)  least gap |a - b| >= diam(X) between distinct a, b in A \\ X
    mu(A, X)   least diam(X ∪ {y}) over y in A \\ X

Both eta and mu are infima over infinite sets, but the gap structure of an
eventually periodic tail repeats with its modulus, so a finite scan window
suffices; the windows used here are property-tested against 10x-larger
brute-force scans.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Iterable

from .errors import EmptyComplement, NoQualifyingPair, TooFewElements
from .periodic import EventuallyPeriodicSet, as_finite_set


def rational_to_json(x: int | Fraction) -> int | str:
    """Exact JSON encoding, parsed back by ``Fraction``: plain int when
    integral, "p/q" otherwise."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _element_window(s: EventuallyPeriodicSet, extra: int = 0) -> list[int]:
    """Prefix of s long enough to expose the full periodic gap structure.

    Covers the finite part plus two whole periods of the tail (so every
    residue appears at least twice), extended by ``extra``.
    """
    return s.prefix(s.threshold + 2 * s.modulus + extra)


def delta(s: EventuallyPeriodicSet | Iterable[int]) -> int:
    """Gcd of all pairwise differences.

    For an eventually periodic set with a nonempty tail the prefix window
    already contains x and x + modulus for every tail residue, so the gcd
    over the window equals the gcd over the whole (infinite) set.
    """
    if isinstance(s, EventuallyPeriodicSet):
        elems = _element_window(s)
    else:
        elems = list(as_finite_set(s))
    if len(elems) < 2:
        raise TooFewElements("delta needs at least two elements")
    return reduce(gcd, (b - a for a, b in zip(elems, elems[1:])))


def diam(xs: Iterable[int]) -> int:
    """Difference between the largest and smallest elements."""
    elems = as_finite_set(xs)
    return elems[-1] - elems[0]


def d_of(xs: Iterable[int]) -> Fraction:
    """diam(X) / delta(X) as an exact rational (integer for an AP)."""
    elems = as_finite_set(xs)
    if len(elems) < 2:
        raise TooFewElements("d(X) needs at least two elements")
    return Fraction(elems[-1] - elems[0], delta(elems))


def eta_with_witness(a: EventuallyPeriodicSet,
                     xs: Iterable[int]) -> tuple[int, tuple[int, int]]:
    """eta(A, X) together with a minimising pair (smallest such pair).

    The minimum over all of A \\ X is attained inside the window
    [0, T + 2n + diam(X)]: a qualifying far-out pair can be shifted down
    whole periods until its lower endpoint is the first tail element in
    its residue class, which lands both endpoints inside the window.
    """
    x = as_finite_set(xs)
    return _eta(a.remove_finite(x), x)


def _eta(rest: EventuallyPeriodicSet,
         x: tuple[int, ...]) -> tuple[int, tuple[int, int]]:
    gap_floor = x[-1] - x[0]
    elems = _element_window(rest, extra=gap_floor)
    best: tuple[int, int, int] | None = None
    for i, lo in enumerate(elems):
        j = bisect_left(elems, lo + max(gap_floor, 1), i + 1)
        if j < len(elems):
            cand = (elems[j] - lo, lo, elems[j])
            if best is None or cand < best:
                best = cand
    if best is None:
        raise NoQualifyingPair(
            "no pair of elements of A \\ X differs by at least diam(X)")
    return best[0], (best[1], best[2])


def eta(a: EventuallyPeriodicSet, xs: Iterable[int]) -> int:
    return eta_with_witness(a, xs)[0]


def mu_with_witness(a: EventuallyPeriodicSet,
                    xs: Iterable[int]) -> tuple[int, int]:
    """mu(A, X) together with the smallest minimising y in A \\ X.

    Candidates below max(X) can only shrink the objective down to
    diam(X); above max(X) the objective grows with y, so only elements up
    to one period past max(X) matter.  The window is extended with the
    overall minimum of A \\ X to cover sets whose elements all lie far
    beyond X.
    """
    x = as_finite_set(xs)
    return _mu(a.remove_finite(x), x)


def _mu(rest: EventuallyPeriodicSet, x: tuple[int, ...]) -> tuple[int, int]:
    if rest.is_empty:
        raise EmptyComplement("A \\ X is empty")
    window = x[-1] + (x[-1] - x[0]) + rest.modulus + 1
    candidates = rest.prefix(window)
    if not candidates:
        candidates = [rest.min_element()]
    best_val, best_y = None, None
    for y in candidates:
        val = max(x[-1], y) - min(x[0], y)
        if best_val is None or val < best_val:
            best_val, best_y = val, y
    return best_val, best_y


def mu(a: EventuallyPeriodicSet, xs: Iterable[int]) -> int:
    return mu_with_witness(a, xs)[0]


@dataclass(frozen=True)
class InstanceInvariants:
    """All scalar invariants of a removal pair (A, X), with witnesses.

    For a singleton X the gcd of differences is undefined; we use the
    convention delta = 1, d = 0 so that d-weighted bounds degenerate
    cleanly (the d-term vanishes).
    """

    delta_x: int
    diam_x: int
    d_x: Fraction
    eta: int
    mu: int
    eta_witness: tuple[int, int]
    mu_witness: int

    def to_json(self) -> dict:
        return {
            "delta": self.delta_x,
            "diam": self.diam_x,
            "d": rational_to_json(self.d_x),
            "eta": self.eta,
            "mu": self.mu,
            "eta_witness": list(self.eta_witness),
            "mu_witness": self.mu_witness,
        }


def instance_invariants(a: EventuallyPeriodicSet, xs: Iterable[int],
                        rest: EventuallyPeriodicSet | None = None
                        ) -> InstanceInvariants:
    """Compute every invariant of the pair (A, X) in one pass.

    ``rest`` is A \\ X when the caller already holds it; it is then taken
    as given, not recomputed or checked.
    """
    x = as_finite_set(xs)
    if rest is None:
        rest = a.remove_finite(x)
    diam_x = x[-1] - x[0]
    dx = delta(x) if len(x) >= 2 else 1
    d_val = Fraction(diam_x, dx)
    eta_val, eta_wit = _eta(rest, x)
    mu_val, mu_wit = _mu(rest, x)
    return InstanceInvariants(
        delta_x=dx,
        diam_x=diam_x,
        d_x=d_val,
        eta=eta_val,
        mu=mu_val,
        eta_witness=eta_wit,
        mu_witness=mu_wit,
    )
