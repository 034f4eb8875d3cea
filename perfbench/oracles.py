"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``addbasis``: every answer the program gives is
checked against code written apart from its engines.

A set is a plain tuple ``spec = (finite, threshold, modulus, residues)``
standing for

    finite ∪ {x >= threshold : x mod modulus in residues},

with every element of ``finite`` below ``threshold``.  A spec need not be
canonical; every function below is correct for any valid spec.

Orders are decided with the periodicity lemma stated in
``addbasis/periodic.py``: if A is periodic with period n from T on, then
the exactly-k-fold sumset kA is periodic with period n from
kT + (k-1)n <= k(T+n) on.  So kA is cofinite iff it holds the whole period
[k(T+n), k(T+n)+n), and a sumset of non-negative summands below a bound
only needs the elements of A below that bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def members(spec, bound: int) -> list[int]:
    """All elements <= bound, ascending."""
    finite, threshold, n, residues = spec
    out = [x for x in finite if x <= bound]
    out.extend(x for x in range(threshold, bound + 1) if x % n in residues)
    return out


def remove(spec, xs):
    """Spec of A \\ X for a finite X contained in A."""
    _, threshold, n, residues = spec
    gone = set(xs)
    top = max(threshold, max(gone) + 1)
    kept = tuple(x for x in members(spec, top - 1) if x not in gone)
    return kept, top, n, residues


def gcd_of_differences(spec) -> int:
    """Gcd of all differences of an infinite set.

    Every tail element is x0 + jn with x0 in the first period of the tail,
    so the elements below threshold + 2n generate the same gcd.
    """
    _, threshold, n, _ = spec
    elems = members(spec, threshold + 2 * n)
    g = 0
    for a, b in zip(elems, elems[1:]):
        g = gcd(g, b - a)
    return g


def covers(spec, k: int) -> bool:
    """True iff the exactly-k-fold sumset holds the period [k(T+n), k(T+n)+n).

    The sumset is built literally: k rounds of adding every element below
    the bound, kept as a bitmask of the reachable sums.
    """
    _, threshold, n, _ = spec
    start = k * (threshold + n)
    bound = start + n
    keep = (1 << (bound + 1)) - 1
    elems = members(spec, bound)
    sums = 1  # the empty sum
    for _ in range(k):
        nxt = 0
        for a in elems:
            nxt |= sums << a
        sums = nxt & keep
    window = (1 << n) - 1
    return (sums >> start) & window == window


def order_holds(spec, h: int) -> bool:
    """True iff h is the order: hA is cofinite and (h-1)A is not.

    Cofiniteness is monotone in k once it holds (kA + a is a translate of
    a cofinite set), so the two windows decide minimality.
    """
    return h >= 1 and covers(spec, h) and (h == 1 or not covers(spec, h - 1))


def order(spec, cap: int) -> int | None:
    """Least h <= cap with hA cofinite, or None."""
    for h in range(1, cap + 1):
        if covers(spec, h):
            return h
    return None


def eta(spec, xs) -> int:
    """Least gap >= diam(X) between distinct elements of A \\ X, by brute
    force over a window ten times the one the gap structure needs."""
    rest = remove(spec, xs)
    _, top, n, _ = rest
    diam = max(xs) - min(xs)
    floor_gap = max(diam, 1)
    elems = members(rest, 10 * (top + 2 * n + diam + 1))
    best = None
    for i, lo in enumerate(elems):
        for hi in elems[i + 1:]:
            if hi - lo >= floor_gap:
                if best is None or hi - lo < best:
                    best = hi - lo
                break
    return best


def mu(spec, xs) -> int:
    """Closed form of mu(A, X) = min over y in A \\ X of diam(X ∪ {y}).

    If A \\ X meets [min X, max X] the minimum is diam(X); otherwise it is
    reached at the predecessor of min X or the successor of max X.
    """
    rest = remove(spec, xs)
    _, top, n, _ = rest
    lo, hi = min(xs), max(xs)
    elems = members(rest, max(top, hi + 1) + n)
    if any(lo <= y <= hi for y in elems):
        return hi - lo
    below = [y for y in elems if y < lo]
    succ = min(y for y in elems if y > hi)
    best = succ - lo
    if below:
        best = min(best, hi - below[-1])
    return best


def d_of(xs) -> Fraction:
    """diam(X) / gcd of differences; 0 for a single element."""
    xs = sorted(xs)
    if len(xs) < 2:
        return Fraction(0)
    g = 0
    for a, b in zip(xs, xs[1:]):
        g = gcd(g, b - a)
    return Fraction(xs[-1] - xs[0], g)


def density(spec) -> Fraction:
    """Lower density |residues| / modulus (any valid period gives the same)."""
    return Fraction(len(set(spec[3])), spec[2])


# ----------------------------------------------------------------------
# the removal bounds, written from the paper's statements

def rhs_d(h: int, d: Fraction) -> Fraction:
    """G(A \\ X) <= h(h+3)/2 + d h(h-1)(h+4)/6."""
    return Fraction(h * (h + 3), 2) + d * Fraction(h * (h - 1) * (h + 4), 6)


def rhs_eta(h: int, eta_val: int) -> int:
    """G(A \\ X) <= eta (h^2 - 1) + h + 1."""
    return eta_val * (h * h - 1) + h + 1


def rhs_mu(h: int, mu_val: int) -> Fraction:
    """G(A \\ X) <= h mu (h mu + 3) / 2."""
    return Fraction(h * mu_val * (h * mu_val + 3), 2)


def rhs_mu_improved(h: int, mu_val: int) -> int:
    """G(A \\ X) <= 4h (2 h mu + 1)."""
    return 4 * h * (2 * h * mu_val + 1)


def rhs_density(dens: Fraction) -> int:
    """Any basis of positive lower density sigma has order <= floor(4/sigma)."""
    q = 4 / dens
    return q.numerator // q.denominator


def rhs_single_upper(h: int) -> int:
    """Removing one element: G(A \\ {x}) <= h(h+1)/2 + ceil((h-1)/3)."""
    return h * (h + 1) // 2 + -((1 - h) // 3)


# ----------------------------------------------------------------------
# bases of Z/nZ

def mobius(n: int) -> int:
    result, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def cyclic_bases_with_zero(n: int) -> int:
    """Number of bases of Z/nZ that contain 0.

    A subset containing 0 is a basis iff it generates Z/nZ (its h-fold
    sums grow until they fill the subgroup it generates).  Subsets of the
    subgroup of index d that contain 0 number 2^(n/d - 1), so Möbius
    inversion over the divisors of n counts the generating ones.
    """
    return sum(mobius(d) * 2 ** (n // d - 1)
               for d in range(1, n + 1) if n % d == 0)
