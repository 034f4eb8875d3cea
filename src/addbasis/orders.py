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
    close to the definition.  Step h adds A to the fold (h-1)A and combs
    the operand with fewer pieces, usually A: |F| + |R| + ceil(log2(bound
    / n)) shift-ORs of ints bound = T((h-1)A) + T + 4N bits wide, with N
    the lcm of the two moduli.

``residue``
    Reduces the cofiniteness question to residue classes.  Write
    A = F ∪ P with F the exceptional finite part and P the full periodic
    tail (mod n from the threshold on), R the tail residues and
    C = (F ∪ R) mod n.  A large x lies in hA iff x mod n is a sum of h
    residues of C at least one of which is in R: the tail factors absorb
    any multiple of n, while a sum using only F elements is bounded.  So
    hA is cofinite iff U_h := R + (h-1)C is all of Z/nZ.

    Pick c0 ∈ C and put D = C - c0.  Translating by (h-1)c0 shows that
    U_h covers Z/nZ exactly when R + (h-1)D does.  D contains 0, so the
    sets R + kD are nested.  Once delta(A) = 1, D generates Z/nZ: if
    <C - C> were dZ/nZ with 1 < d | n, d would divide every difference
    of A.  A nonempty S with S + D = S is a union of cosets of <D>, so
    it is Z/nZ: the sets R + kD grow strictly until they cover the
    group, and G(A) <= n - |R| + 1.  A stall is a bug.

The set's ``_residue_view`` gives R, D for c0 = min C, and delta(A).
``_cover`` is the covering driver and ``_rotate_into`` its kernel.
``sweeps._klopsch_lev_n`` drives it too, growing C + kC for C ∋ 0.
``_memo_order`` answers a set with two tail residues from a caller's
memo keyed on ``_affine_key``, the class of (n, R, C) under affine maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EmptyOperand, InternalInconsistency,
                     NotABasisCertificate, OrderCapExceeded)
from .periodic import EventuallyPeriodicSet, _bits

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


def _cover(s: int, steps: int, n: int, cap: int) -> int | None:
    """Least k <= cap with s + kD = Z/nZ, where D = steps ∪ {0} generates
    Z/nZ, or None if k would pass cap.  Raises InternalInconsistency if
    the sums stall short of the group, which that condition rules out."""
    full = (1 << n) - 1
    k = 0
    while s != full:
        if k == cap:
            return None
        grown = _rotate_into(s, s, steps, n, full)
        if grown == s:
            raise InternalInconsistency(
                f"sums of a generating set of Z/{n}Z stalled")
        s = grown
        k += 1
    return k


def order(a: EventuallyPeriodicSet, h_cap: int = DEFAULT_H_CAP,
          method: str = "residue") -> OrderResult:
    """Least h <= h_cap such that the h-fold sumset of ``a`` is cofinite.

    ``method`` names the engine, ``"residue"`` or ``"bitset"``; both give
    the same order.  Raises NotABasisCertificate when the set is provably
    not a basis (finite set, or gcd of differences > 1), OrderCapExceeded
    when no h <= h_cap works, and ValueError for an unknown method or
    h_cap < 1.  The residue engine ends within n - |R| cover steps, as
    G(A) <= n - |R| + 1, so h_cap binds it only below n - |R| + 1.
    """
    if method not in ("residue", "bitset"):
        raise ValueError(f"unknown method {method!r}")
    if h_cap < 1:
        raise ValueError(f"h_cap must be >= 1, got {h_cap}")
    if a.is_empty:
        raise EmptyOperand("order of the empty set is undefined")
    if a.is_finite:
        raise NotABasisCertificate("finite set")
    rmask, dmask, g = a._residue_view()
    if g > 1:
        raise NotABasisCertificate(f"all differences divisible by {g}")
    if method == "bitset":
        return _order_bitset(a, h_cap)
    n = a.modulus
    k = _cover(rmask, dmask & (dmask - 1), n, h_cap - 1)
    if k is None:
        raise OrderCapExceeded(h_cap)
    # valid witness: pick tail representatives in [T, T+n) and push the
    # surplus (a multiple of n) onto one of them
    return OrderResult(k + 1, (k + 1) * (a.threshold + n))


def _affine_key(a: EventuallyPeriodicSet) -> tuple[int, int] | None:
    """A key that determines the residue engine's order, for a set whose
    tail residues are R = {r1, r2} with r1 < r2 and r2 - r1 a unit mod n;
    None for any other set.

    With v = (r2 - r1)^-1 mod n, the maps x ↦ v(x - r1) and
    x ↦ -v(x - r2) both send R to {0, 1}.  The key is n with the smaller
    of the masks of the images of C = (F ∪ R) mod n under them.  Sound:
    a map x ↦ ux + t with u a unit is a bijection of Z/nZ that carries
    R + (h-1)C onto u(R + (h-1)C) + ht, so U_h covers Z/nZ exactly when
    its image does, as ``sweeps._klopsch_lev_n`` proves for C alone.
    Two sets with equal keys map onto the same ({0, 1}, C'), so they have
    the same order.  Such a set has delta = 1, as r2 - r1 is a unit.
    """
    rmask = a._rmask
    if rmask.bit_count() != 2:
        return None
    n = a.modulus
    r1, r2 = (rmask & -rmask).bit_length() - 1, rmask.bit_length() - 1
    try:
        v = pow(r2 - r1, -1, n)
    except ValueError:  # r2 - r1 is no unit mod n
        return None
    m1 = m2 = 0
    for c in _bits(a._class_mask()):
        m1 |= 1 << (c - r1) * v % n
        m2 |= 1 << (r2 - c) * v % n
    return n, min(m1, m2)


# A key's hits 1, 1 + 17, 1 + 2*17, ... are recomputed.  The period is
# odd: a wrong key that merged the orbits of each instance's A and A \ X
# would be hit by the two in turn, and an even period samples only one.
_CHECK_EVERY = 17


def _memo_order(a: EventuallyPeriodicSet, h_cap: int,
                memo: dict) -> OrderResult:
    """``order(a, h_cap)`` through ``memo``, a dict that the caller owns,
    from each ``_affine_key`` seen to [G - 1, hits].

    A set without a key, or whose key is new, goes to ``order``.  A hit
    rebuilds the result with the set's own witness (k + 1)(T + n), as
    ``order`` does.  The first hit of each key, and every 17th after it,
    is recomputed by ``order``; a mismatch raises InternalInconsistency.
    """
    key = _affine_key(a)
    if key is None:
        return order(a, h_cap)
    entry = memo.get(key)
    if entry is None:
        res = order(a, h_cap)
        memo[key] = [res.order - 1, 0]
        return res
    k, hits = entry
    if k >= h_cap:
        raise OrderCapExceeded(h_cap)
    res = OrderResult(k + 1, (k + 1) * (a.threshold + a.modulus))
    entry[1] = hits + 1
    if hits % _CHECK_EVERY == 0:
        fresh = order(a, h_cap)
        if fresh != res:
            raise InternalInconsistency(
                f"order memo answered {res} for key {key}, the engine "
                f"{fresh}")
    return res


def _order_bitset(s: EventuallyPeriodicSet, h_cap: int) -> OrderResult:
    fold = s
    for h in range(1, h_cap + 1):
        if fold.is_cofinite():
            return OrderResult(h, fold.threshold)  # canonical, so least
        if h < h_cap:
            fold = fold.sumset(s)
    raise OrderCapExceeded(h_cap)
