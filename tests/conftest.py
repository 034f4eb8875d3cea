"""Shared strategies and independent reference implementations.

The naive oracles here deliberately avoid the production code paths:
sumsets are literal pairwise sums of enumerated prefixes, and eta/mu are
brute-force minima over oversized windows.  Tests freeze expected values
computed by these oracles and compare the fast implementations against
them.
"""

from __future__ import annotations

from bisect import bisect_left

from hypothesis import strategies as st

from addbasis import EventuallyPeriodicSet


@st.composite
def periodic_sets(draw, max_modulus=24, max_threshold=40,
                  allow_empty=False, allow_finite=True):
    n = draw(st.integers(1, max_modulus))
    residues = draw(st.sets(st.integers(0, n - 1), max_size=n))
    if not allow_finite and not residues:
        residues = {draw(st.integers(0, n - 1))}
    t = draw(st.integers(0, max_threshold))
    finite = draw(st.sets(st.integers(0, t - 1), max_size=8)) if t > 0 else set()
    s = EventuallyPeriodicSet.from_parts(sorted(finite), t, n, residues)
    if not allow_empty and s.is_empty:
        s = EventuallyPeriodicSet.from_parts(
            [], 0, n, {draw(st.integers(0, n - 1))})
    return s


def naive_sumset_prefix(s1: EventuallyPeriodicSet, s2: EventuallyPeriodicSet,
                        bound: int) -> list[int]:
    """All pairwise sums <= bound, from explicitly enumerated prefixes."""
    l1, l2 = s1.prefix(bound), s2.prefix(bound)
    sums = {a + b for a in l1 for b in l2 if a + b <= bound}
    return sorted(sums)


def naive_h_fold_prefix(s: EventuallyPeriodicSet, h: int,
                        bound: int) -> list[int]:
    """Sums of exactly h elements, <= bound, by repeated pairwise sums.

    A sum of non-negative terms <= bound forces every partial sum
    <= bound, so truncating at each stage loses nothing.
    """
    base = s.prefix(bound)
    acc = set(base)
    for _ in range(h - 1):
        acc = {a + b for a in acc for b in base if a + b <= bound}
    return sorted(acc)


def naive_eta(a: EventuallyPeriodicSet, x: tuple[int, ...],
              window: int) -> int | None:
    """Least gap >= diam(X) between distinct elements of A \\ X
    inside [0, window]."""
    gap_floor = max(x) - min(x)
    elems = a.remove_finite(x).prefix(window)
    best = None
    for i, lo in enumerate(elems):
        j = bisect_left(elems, lo + max(gap_floor, 1), i + 1)
        if j < len(elems):
            gap = elems[j] - lo
            if best is None or gap < best:
                best = gap
    return best


def naive_mu(a: EventuallyPeriodicSet, x: tuple[int, ...],
             window: int) -> int | None:
    """Least diam(X ∪ {y}) over y in A \\ X inside [0, window]."""
    lo, hi = min(x), max(x)
    candidates = a.remove_finite(x).prefix(window)
    if not candidates:
        return None
    return min(max(hi, y) - min(lo, y) for y in candidates)


def prefix_eta(rest: EventuallyPeriodicSet,
               x: tuple[int, ...]) -> tuple[int, tuple[int, int]] | None:
    """eta of rest = A \\ X with its least minimising pair, scanned over
    the sorted prefix of rest up to the window T + 2n + diam(X) that
    ``invariants._eta`` proves; None when no pair qualifies."""
    gap_floor = x[-1] - x[0]
    elems = rest.prefix(rest.threshold + 2 * rest.modulus + gap_floor)
    best = None
    for i, lo in enumerate(elems):
        j = bisect_left(elems, lo + max(gap_floor, 1), i + 1)
        if j < len(elems):
            cand = (elems[j] - lo, lo, elems[j])
            if best is None or cand < best:
                best = cand
    return None if best is None else (best[0], (best[1], best[2]))


def prefix_mu(rest: EventuallyPeriodicSet,
              x: tuple[int, ...]) -> tuple[int, int]:
    """mu of rest = A \\ X with its least minimising y, scanned over the
    sorted prefix of rest up to the documented window max X + diam(X)
    + n + 1, or rest's minimum if that prefix is empty.  The window is
    the one ``invariants.mu_with_witness`` documents, fault included:
    succ(max X) can lie past it."""
    window = x[-1] + (x[-1] - x[0]) + rest.modulus + 1
    best_val, best_y = None, None
    for y in rest.prefix(window) or [rest.min_element()]:
        val = max(x[-1], y) - min(x[0], y)
        if best_val is None or val < best_val:
            best_val, best_y = val, y
    return best_val, best_y


def naive_cyclic_order(n: int, elems) -> int | None:
    """Least h with every residue mod n a sum of exactly h elements of
    ``elems``, or None when the exact sums never cover Z/nZ.

    The exact h-fold sums are a deterministic function of the previous
    ones, so a repeated set of sums before full coverage settles None.
    """
    elems = {e % n for e in elems}
    sums, seen, h = set(elems), [], 1
    while sums != set(range(n)):
        if sums in seen:
            return None
        seen.append(sums)
        sums = {(s + e) % n for s in sums for e in elems}
        h += 1
    return h
