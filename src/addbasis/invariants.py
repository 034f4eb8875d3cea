"""Scalar invariants of finite sets and of removal pairs (A, X).

For a finite set X of integers:

    delta(X)  gcd of all pairwise differences
    diam(X)   max(X) - min(X)
    d(X)      diam(X) / delta(X), an integer: delta(X) divides diam(X)

For an infinite eventually periodic S with finite part F, modulus n and
tail residues R, delta(S) = gcd(n, c - c0 for c in F ∪ R) for any c0 in
F ∪ R: the tail holds some x and x + n, so delta(S) divides n, the class
mod n of an element fixes it mod delta(S), and each class of F ∪ R holds
an element.  That takes O(|F| + |R|) work and no prefix of S;
``EventuallyPeriodicSet._residue_view`` computes it.

For an infinite set A containing X:

    eta(A, X)  least gap |a - b| >= diam(X) between distinct a, b in A \\ X
    mu(A, X)   least diam(X ∪ {y}) over y in A \\ X

Both eta and mu are infima over infinite sets, but the gap structure of an
eventually periodic tail repeats with its modulus, so a finite scan window
can suffice.  ``_eta`` proves its window.  The mu window of ``_mu`` does
not always suffice: when succ(max X) in A \\ X lies past it, mu can come
out too large (README, "Known divergences").  Both windows are
property-tested against 10x-larger brute-force scans.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Iterable

from .errors import EmptyComplement, NoQualifyingPair, TooFewElements
from .periodic import EventuallyPeriodicSet, as_finite_set

if TYPE_CHECKING:
    from .bounds import RemovalInstance


def delta(s: EventuallyPeriodicSet | Iterable[int]) -> int:
    """Gcd of all pairwise differences; for an infinite set, the residue
    formula of the module docstring."""
    if isinstance(s, EventuallyPeriodicSet):
        if not s.is_finite:
            return s._residue_view()[2]
        elems = s.finite_part
    else:
        elems = as_finite_set(s)
    if len(elems) < 2:
        raise TooFewElements("delta needs at least two elements")
    return gcd(*(b - a for a, b in zip(elems, elems[1:])))


def diam(xs: Iterable[int]) -> int:
    """Difference between the largest and smallest elements."""
    elems = as_finite_set(xs)
    return elems[-1] - elems[0]


def d_of(xs: Iterable[int]) -> int:
    """diam(X) / delta(X), an integer."""
    elems = as_finite_set(xs)
    return (elems[-1] - elems[0]) // delta(elems)  # TooFewElements if < 2


def eta_with_witness(a: EventuallyPeriodicSet,
                     xs: Iterable[int]) -> tuple[int, tuple[int, int]]:
    """eta(A, X) together with a minimising pair (smallest such pair),
    found in the window that :func:`_eta` proves sufficient."""
    x = as_finite_set(xs)
    return _eta(a.remove_finite(x), x)


def _eta(rest: EventuallyPeriodicSet,
         x: tuple[int, ...]) -> tuple[int, tuple[int, int]]:
    """eta over the window [0, T + 2n + D] of rest = A \\ X, with T its
    threshold, n its modulus and D = diam(X).

    With D' = max(D, 1) and next(y) the least element of rest >= y, eta
    is the least next(a + D') - a over a in rest.  Let a be the least
    minimiser.  If a >= T + n, rest is n-periodic on [a - n, infinity),
    so a - n is a minimiser too; hence a < T + n.  Every n consecutive
    integers from T on meet the tail, so next(a + D') <= max(a + D', T)
    + n - 1 <= T + 2n + D.  The window is a whole prefix of rest, so the
    scan finds that pair, and every pair it reports is a pair of rest.
    """
    gap_floor = x[-1] - x[0]
    elems = rest.prefix(rest.threshold + 2 * rest.modulus + gap_floor)
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
    """mu(A, X) together with the smallest minimising y in A \\ X, found
    among its elements up to max X + diam X + n + 1 (n its modulus), or
    its minimum if none is.  That window does not always suffice: when
    A \\ X has no element in [min X, max X] and succ(max X) lies past the
    window, mu can come out too large, e.g. 5 for {0, 1, 6} ∪ [9, ∞)
    with X = {6}, whose true mu is 3.
    """
    x = as_finite_set(xs)
    return _mu(a.remove_finite(x), x)


def _mu(rest: EventuallyPeriodicSet, x: tuple[int, ...]) -> tuple[int, int]:
    if rest.is_empty:
        raise EmptyComplement("A \\ X is empty")
    window = x[-1] + (x[-1] - x[0]) + rest.modulus + 1
    best_val, best_y = None, None
    for y in rest.prefix(window) or [rest.min_element()]:
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
    d_x: int
    eta: int
    mu: int
    eta_witness: tuple[int, int]
    mu_witness: int

    def to_json(self) -> dict:
        return {
            "delta": self.delta_x,
            "diam": self.diam_x,
            "d": self.d_x,
            "eta": self.eta,
            "mu": self.mu,
            "eta_witness": list(self.eta_witness),
            "mu_witness": self.mu_witness,
        }


def instance_invariants(inst: RemovalInstance) -> InstanceInvariants:
    """Every invariant of the pair (A, X) of ``inst``, in one pass."""
    x, rest = inst.x, inst.rest
    diam_x = x[-1] - x[0]
    dx = delta(x) if len(x) >= 2 else 1
    eta_val, eta_wit = _eta(rest, x)
    mu_val, mu_wit = _mu(rest, x)
    return InstanceInvariants(
        delta_x=dx,
        diam_x=diam_x,
        d_x=diam_x // dx,
        eta=eta_val,
        mu=mu_val,
        eta_witness=eta_wit,
        mu_witness=mu_wit,
    )
