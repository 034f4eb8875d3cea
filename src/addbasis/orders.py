"""Exact order computations for additive bases.

``order`` finds the least h such that the h-fold sumset hA (sums of
exactly h elements, repetition allowed) misses only finitely many natural
numbers.  Because the count is exact, hA need not grow with h when 0 is
absent from A, so every h from 1 upward is tested; the search exits early
only on success.

Two interchangeable engines are provided and cross-validated against each
other in the test suite:

``bitset``
    Materialises each h-fold sumset with the prefix-convolution kernel in
    :mod:`addbasis.periodic` and tests cofiniteness directly.  Simple and
    close to the definition; cost grows with h * threshold.

``residue``
    Reduces the cofiniteness question to residue classes.  Write
    A = F ∪ P with F the exceptional finite part and P the full periodic
    tail (mod n from the threshold on).  A large x lies in hA iff x mod n
    is a sum of m residues of F and j = h - m residues of the tail with
    j >= 1: the tail factors absorb any multiple of n, while a sum using
    only F elements is bounded.  So hA is cofinite iff

        U_h := ∪_{m=0}^{h-1} (m-fold sums of F mod n) + ((h-m)-fold sums
               of tail residues mod n)   equals all of Z/nZ,

    which is tracked by the pair recurrence U' = (U + C) ∪ (V + R),
    V' = V + F over subsets of Z/nZ (C = F ∪ R, V_0 = {0}).  The state
    sequence is deterministic, so revisiting a state before full coverage
    proves the set is not a basis.  Runs in tiny polynomial time in n.

``_rotate_into`` is the covering kernel.  Besides ``_order_residue`` its
only driver is ``sweeps._klopsch_lev_n``, which grows the h-fold sums of
a subset of Z/nZ containing 0 until they cover the group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyOperand, NotABasisCertificate, OrderCapExceeded
from .invariants import delta
from .periodic import EventuallyPeriodicSet

DEFAULT_H_CAP = 4096


@dataclass(frozen=True)
class OrderResult:
    """Order of an asymptotic basis plus a proven cofiniteness witness.

    Every x >= cofinite_witness_threshold lies in the order-fold sumset.
    The witness is engine-dependent: the bitset engine reports the tight
    canonical threshold, the residue engine a proven but coarser bound.
    """

    order: int
    cofinite_witness_threshold: int


def _rotate_into(acc: int, mask: int, shifts: int, n: int, full: int) -> int:
    """acc ∪ (mask + s) over all set bits s of ``shifts``, in Z/nZ."""
    while shifts:
        low = shifts & -shifts
        e = low.bit_length() - 1
        acc |= ((mask << e) | (mask >> (n - e))) & full if e else mask
        shifts ^= low
    return acc


def _residue_masks(s: EventuallyPeriodicSet) -> tuple[int, int, int]:
    """(n, finite-part residues, tail residues) as bitmasks."""
    n = s.modulus
    fm = 0
    for f in s.finite_part:
        fm |= 1 << (f % n)
    rm = 0
    for r in s.residues:
        rm |= 1 << r
    return n, fm, rm


def order(a: EventuallyPeriodicSet, h_cap: int = DEFAULT_H_CAP,
          method: str = "residue") -> OrderResult:
    """Least h <= h_cap such that the h-fold sumset of ``a`` is cofinite.

    ``method`` names the engine, ``"residue"`` or ``"bitset"``; both give
    the same order.  Raises NotABasisCertificate when the set is provably
    not a basis (finite set, gcd of differences > 1, or residue-state
    cycle), and OrderCapExceeded when h_cap is reached without a decision.
    """
    if method not in ("residue", "bitset"):
        raise ValueError(f"unknown method {method!r}")
    if a.is_empty:
        raise EmptyOperand("order of the empty set is undefined")
    if a.is_finite:
        raise NotABasisCertificate("finite set")
    g = delta(a)
    if g > 1:
        raise NotABasisCertificate(f"all differences divisible by {g}")
    if method == "bitset":
        return _order_bitset(a, h_cap)
    return _order_residue(a, h_cap)


def _order_bitset(s: EventuallyPeriodicSet, h_cap: int) -> OrderResult:
    fold = s
    for h in range(1, h_cap + 1):
        if fold.is_cofinite():
            return OrderResult(h, _cofinite_start(fold))
        if h < h_cap:
            fold = fold.sumset(s)
    raise OrderCapExceeded(h_cap)


def _cofinite_start(fold: EventuallyPeriodicSet) -> int:
    # least W with [W, infinity) fully contained in the cofinite set
    w = fold.threshold
    present = set(fold.finite_part)
    while w > 0 and (w - 1) in present:
        w -= 1
    return w


def _order_residue(s: EventuallyPeriodicSet, h_cap: int) -> OrderResult:
    n, fmask, rmask = _residue_masks(s)
    full = (1 << n) - 1
    cmask = fmask | rmask
    u, v = 0, 1
    seen: set[tuple[int, int]] = set()
    top = max(s.finite_part[-1] if s.finite_part else 0, s.threshold)
    for h in range(1, h_cap + 1):
        u = _rotate_into(_rotate_into(0, u, cmask, n, full), v, rmask, n, full)
        v = _rotate_into(0, v, fmask, n, full)
        if u == full:
            # valid witness: pick tail representatives in [T, T+n) and push
            # the surplus (a multiple of n) onto one of them
            return OrderResult(h, h * (top + n))
        state = (u, v)
        if state in seen:
            raise NotABasisCertificate(
                "h-fold residue states cycle without covering Z/nZ")
        seen.add(state)
    raise OrderCapExceeded(h_cap)
