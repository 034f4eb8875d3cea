"""Exact algebra of eventually periodic subsets of the natural numbers.

A set is a finite exceptional prefix plus a periodic tail:

    S = finite_part  ∪  { x >= threshold : (x mod modulus) in residues }

Every subset of N that is "eventually periodic" (finitely many exceptions
to a union of arithmetic progressions with a common modulus) has a unique
canonical representation of this form: the modulus is the minimal eventual
period, the threshold is the least point from which the periodic
description is correct, and the finite part holds exactly the elements
below the threshold.  Every value is brought into this form when it is
constructed, so two values are equal iff they denote the same subset of
N.  A value is stored as four ints: the threshold, the modulus and the
masks of the finite part and the residues, from which ``finite_part``
and ``residues`` are decoded on first read.

Sumsets are computed exactly.  If S1 has threshold T1 and modulus n1, and
S2 likewise, then S1 + S2 is periodic with period N = lcm(n1, n2) from
T1 + T2 + N onwards (split any sum a + b: if a < T1 + N then
b > (a+b) - T1 - N >= T2, so one summand always sits in a periodic tail
and absorbs a shift by N).  We therefore convolve bitmask prefixes of
length T1 + T2 + 4N, read the tail off a window, and verify the claimed
periodicity over the remaining three windows as a bug trap.  The
convolution shifts one operand's prefix mask to each finite element of
the other and combs the other's tail: one shift to the first tail
element of each residue, then the comb ORed onto itself shifted by n,
2n, 4n, ... (n the other's modulus) until the step passes the bound.
The last doublings overshoot the bound, but bits only move up, so the
cut at the bound removes exactly the overshoot: a logarithmic number of
shift-ORs, not one per tail element.

All values are immutable; operations are pure functions returning
canonical values, so instances may be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from math import gcd, isqrt, lcm
from operator import lt
from typing import Iterable

from .errors import EmptyOperand, InternalInconsistency, NotASubset


class _FiniteSet(tuple):
    """A tuple that :func:`as_finite_set` has validated, for good."""


def as_finite_set(xs: Iterable[int]) -> tuple[int, ...]:
    """Validate and freeze a finite set of non-negative integers.

    Accepts any iterable; returns the sorted, duplicate-free tuple.
    Raises ValueError on negatives, non-integers, or an empty input.
    """
    if type(xs) is _FiniteSet:
        return xs
    elems = set(xs)
    if not elems:
        raise ValueError("finite set must be nonempty")
    for x in elems:  # before sorting, which mixed types would break
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"finite set elements must be ints, got {x!r}")
    out = sorted(elems)
    if out[0] < 0:
        raise ValueError(f"finite set elements must be >= 0, got {out[0]}")
    return _FiniteSet(out)


def _json_keys(obj, keys: Iterable[str], what: str) -> None:
    """Refuse any key of ``obj`` outside ``keys``; ``what`` leads the error."""
    unknown = sorted(set(obj) - set(keys)) if isinstance(obj, dict) else []
    if unknown:
        raise ValueError(f"{what} {unknown}; valid: {list(keys)}")


def _json_object(obj: dict | str, keys: Iterable[str], what: str) -> dict:
    """``obj``, parsed once if it is JSON text, checked to be an object
    with no key outside ``keys``; ``what`` names it in the error."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    _json_keys(obj, keys, f"{what} has no field")
    return obj


_KINDS = {int: "an int", list: "a list of ints", dict: "an object",
          str: "a string", bool: "a boolean"}


def _json_field(obj: dict, key: str, default):
    """``obj[key]`` (``default`` when absent) of a parsed JSON object,
    checked to have the default's type (one of ``_KINDS``)."""
    v = obj.get(key, default)
    if type(v) is not type(default) or type(v) is list and any(
            type(e) is not int for e in v):
        raise ValueError(f"JSON field {key!r} must be "
                         f"{_KINDS[type(default)]}, got {v!r}")
    return v


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to 0/1 bytes


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending.  Up to 8 set bits
    are peeled off, lowest first (2x faster than the digit pass for 2 at
    width 8, more when wider; Python 3.11); more are read in one pass
    over the binary digits, linear in the width.  A list, so that a tuple
    made from it is allocated at its size (one grown from an iterator
    raised the peak RSS of long bitset runs by ~10%)."""
    if mask.bit_count() <= 8:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BITS)))


def _mask(xs: Iterable[int]) -> int:
    """The mask with bit x set for each x in ``xs``, built in a buffer of
    its own size and converted once: linear in the largest x."""
    buf = bytearray((max(xs, default=-1) + 8) >> 3)
    for x in xs:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


def _pattern(rmask: int, m: int, width: int) -> int:
    """Bit x < width set iff bit x mod m of ``rmask`` is, by doubling."""
    while m < width:
        rmask |= rmask << m
        m *= 2
    return rmask & ((1 << width) - 1)


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _min_period(rmask: int, n: int) -> int:
    """Minimal period of a residue set given as an n-bit mask: the least
    divisor m of n for which rotating the mask by m leaves it unchanged.
    The rotations that fix the mask form a subgroup of Z/nZ, so every
    period is a multiple of the least one m0, and dividing m = n by each
    prime p of n, once per factor p of n, where m // p still fixes the
    mask stops at the exponent of p in m0: at most Omega(n) rotations."""
    def fixes(d: int) -> bool:
        # bit i == bit i + d below n - d; as d divides n, that is the
        # rotation by d, and no temporary is wider than the mask itself
        return rmask >> d == rmask ^ (rmask >> (n - d) << (n - d))

    m, rest, p = n, n, 1
    while rest > 1:
        p = p + 1 if p * p <= rest else rest  # else what is left is prime
        while rest % p == 0:
            rest //= p
            if fixes(m // p):
                m //= p
    return m


@dataclass(frozen=True, init=False, repr=False)
class EventuallyPeriodicSet:
    """Immutable eventually periodic subset of N, canonical by construction.

    The constructor's fields must be structurally valid: a strictly
    increasing finite part inside [0, threshold), residues inside
    [0, modulus).  It checks that, then lowers the modulus to the minimal
    period and the threshold to the least point from which the periodic
    description holds; the library's own rebuilds skip the checks.
    Equality and hashing compare the four stored ints, which canonical
    form makes set equality, so :meth:`normalize` returns ``self``."""

    _fmask: int
    threshold: int
    modulus: int
    _rmask: int

    def __init__(self, finite_part: tuple[int, ...], threshold: int,
                 modulus: int, residues: frozenset[int]):
        """Check the fields where data enters, at C speed (only a faulty
        finite part is scanned, for its first fault), then canonicalize."""
        finite, t, n, res = finite_part, threshold, modulus, residues
        if n < 1:
            raise ValueError("modulus must be positive")
        if t < 0:
            raise ValueError("threshold must be non-negative")
        if res and (min(res) < 0 or max(res) >= n):
            raise ValueError("residues must lie in [0, modulus)")
        if finite and not (finite[0] >= 0 and finite[-1] < t
                           and all(map(lt, finite, finite[1:]))):
            prev = -1  # a fault: scan for the first one, to name it
            for x in finite:
                if x <= prev:
                    raise ValueError("finite part must be strictly increasing")
                if x >= t:
                    raise ValueError(
                        "finite part elements must lie in [0, threshold)")
                prev = x
        rmask = _mask(res)  # cut to the minimal period below
        m = _min_period(rmask, n) if rmask else 1
        rmask ^= rmask >> m << m
        self._store(_mask(finite), t, m, rmask)

    def _store(self, fmask: int, t: int, m: int,
               rmask: int) -> "EventuallyPeriodicSet":
        """Set the fields, t lowered to one past the highest y < t where
        ``fmask`` (below t) and the canonical tail differ; return ``self``.
        With w the width of ``fmask``: y is the highest residue position
        below t if that is >= w, else [w, t) holds none and one w-bit XOR
        finds y, so no t-bit int is built.  Without a tail, t = w."""
        w = fmask.bit_length()
        if rmask:
            s = (t - 1) % m  # the residues up to s, cut only if wider
            low = rmask & ((2 << s) - 1) if rmask >> s > 1 else rmask
            y = t - 1 - s + (low.bit_length() or rmask.bit_length() - m) - 1
            if y < w:
                y = (fmask ^ _pattern(rmask, m, w)).bit_length() - 1
                fmask &= (1 << (y + 1)) - 1
            t = y + 1
        else:
            t = w
        for name, value in (("_fmask", fmask), ("threshold", t),
                            ("modulus", m), ("_rmask", rmask)):
            object.__setattr__(self, name, value)  # a __dict__ read: 2x slower
        return self

    finite_part = cached_property(lambda s: tuple(_bits(s._fmask)))
    residues = cached_property(lambda s: frozenset(_bits(s._rmask)))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_parts(cls, finite: Iterable[int] = (), threshold: int = 0,
                   modulus: int = 1, residues: Iterable[int] = (),
                   ) -> "EventuallyPeriodicSet":
        return cls(tuple(sorted(set(finite))), threshold, modulus,
                   frozenset(residues))

    @classmethod
    def from_finite(cls, xs: Iterable[int]) -> "EventuallyPeriodicSet":
        """The finite set {xs} (must be nonempty)."""
        elems = as_finite_set(xs)
        return cls(elems, elems[-1] + 1, 1, frozenset())

    @classmethod
    def from_periodic(cls, modulus: int, residues: Iterable[int],
                      threshold: int = 0) -> "EventuallyPeriodicSet":
        """The set {x >= threshold : x mod modulus in residues}."""
        return cls.from_parts((), threshold, modulus, residues)

    @classmethod
    def naturals(cls) -> "EventuallyPeriodicSet":
        return cls((), 0, 1, frozenset({0}))

    def normalize(self) -> "EventuallyPeriodicSet":
        """The canonical representation: ``self``, which is canonical
        from construction on."""
        return self

    # ------------------------------------------------------------------
    # membership and enumeration

    def __contains__(self, x: int) -> bool:
        if x >= self.threshold:
            return bool(self._rmask >> x % self.modulus & 1)
        return x >= 0 and bool(self._fmask >> x & 1)

    @property
    def is_empty(self) -> bool:
        return not self._fmask and not self._rmask

    @property
    def is_finite(self) -> bool:
        return not self._rmask

    def min_element(self) -> int:
        """Smallest element; raises EmptyOperand on the empty set.  Finite
        elements lie below the threshold, so they precede the tail's."""
        f, r, t, n = self._fmask, self._rmask, self.threshold, self.modulus
        if f:
            return (f & -f).bit_length() - 1
        if not r:
            raise EmptyOperand("empty set has no minimum")
        r = (r >> t % n | r << (n - t % n)) & ((1 << n) - 1)  # bit j: t + j
        return t + (r & -r).bit_length() - 1

    def prefix(self, bound: int) -> list[int]:
        """Sorted list of all elements <= bound."""
        out = [x for x in self.finite_part if x <= bound]
        t, n = self.threshold, self.modulus
        for r in sorted(self.residues):
            first = t + (r - t) % n
            out.extend(range(first, bound + 1, n))
        out.sort()
        return out

    # ------------------------------------------------------------------
    # bitmask prefix kernel

    def _prefix_mask(self, bound: int) -> int:
        """Bitmask of all elements in [0, bound]; bit x set iff x in S: the
        finite-part mask with the tail pattern ORed in from the threshold
        on.  No int is wider than the bound or the finite-part mask."""
        mask, t = self._fmask, self.threshold
        if mask >> (bound + 1):
            mask &= (1 << (bound + 1)) - 1
        if self._rmask and t <= bound:
            mask |= _pattern(self._rmask, self.modulus, bound + 1) >> t << t
        return mask

    @classmethod
    def _from_prefix_mask(cls, mask: int, tail_start: int,
                          period: int) -> "EventuallyPeriodicSet":
        """Rebuild a set from a prefix bitmask known to be periodic with
        the given period from tail_start on.

        The canonical threshold t is one past the highest bit y below
        tail_start with bit y != bit y + period.  The mask is
        period-periodic from tail_start, so S is periodic from x exactly
        when no y >= x has bit y != bit y + period, and t is the least
        such x.  Nor does t depend on which multiple of the minimal period
        is used: if S is P-periodic from t and m-periodic further out, then
        for x >= t, S(x) = S(x + kP) = S(x + kP + m) = S(x + m).

        The period-bit window at t, rotated left by t mod period, is the
        residue mask (bit j of the window is t + j); the constructor's
        rotation search (:func:`_min_period`) lowers it to the minimal
        period.  The fields are therefore canonical as read: no check runs,
        the threshold walk in ``_store`` keeps t, and the set is stored as
        its masks."""
        t = ((mask ^ (mask >> period)) & ((1 << tail_start) - 1)).bit_length()
        full, s = (1 << period) - 1, t % period
        window = (mask >> t) & full
        rmask = (window << s | window >> (period - s)) & full
        m = _min_period(rmask, period)
        return object.__new__(cls)._store(mask & ((1 << t) - 1), t, m,
                                          rmask & ((1 << m) - 1))

    # ------------------------------------------------------------------
    # arithmetic

    def sumset(self, other: "EventuallyPeriodicSet") -> "EventuallyPeriodicSet":
        """Exact sumset {a + b : a in self, b in other}, canonical.

        b is the operand with fewer pieces (finite elements plus residues;
        ``other`` on a tie).  a's prefix mask is shifted to each finite
        element of b and to the first tail element t_r = T_b + (r - T_b)
        mod n_b of each residue r of b, which starts a comb: comb |= comb
        << step for step = n_b, 2 n_b, 4 n_b, ... while step <= bound.
        After j steps the comb holds the shifts t_r + k n_b for every
        k < 2^j, and the loop ends at 2^j n_b > bound, so a larger k
        shifts every bit past the bound, where the final mask cuts it.
        Bits only move up, so cutting to bound + 1 bits after each step
        loses nothing: |F_b| + |R_b| + ceil(log2(bound / n_b)) shift-ORs."""
        a, b = self, other
        if a.is_empty or b.is_empty:
            raise EmptyOperand("sumset of an empty set is undefined")
        if (a._fmask.bit_count() + a._rmask.bit_count()
                < b._fmask.bit_count() + b._rmask.bit_count()):
            a, b = b, a
        period = lcm(a.modulus, b.modulus)
        tail_start = a.threshold + b.threshold + period
        bound = tail_start + 3 * period
        full = (1 << (bound + 1)) - 1
        ma, tb, nb = a._prefix_mask(bound), b.threshold, b.modulus
        comb, step = 0, nb
        for r in _bits(b._rmask):
            comb |= ma << tb + (r - tb) % nb
        comb &= full
        while step <= bound:
            comb |= (comb << step) & full
            step *= 2
        for shift in _bits(b._fmask):
            comb |= ma << shift
        acc = comb & full
        # bug trap: the tail must already repeat with the computed period
        span = (1 << (bound - period - tail_start + 1)) - 1
        if ((acc >> tail_start) ^ (acc >> (tail_start + period))) & span:
            raise InternalInconsistency(
                "sumset prefix is not periodic where it provably must be")
        return EventuallyPeriodicSet._from_prefix_mask(acc, tail_start, period)

    __add__ = sumset

    def h_fold(self, h: int) -> "EventuallyPeriodicSet":
        """Sums of exactly h elements (repetition allowed), canonical.

        Computed by binary doubling; sums of exactly-i and exactly-j
        element multisets compose to exactly-(i+j), so the result equals
        the plain (h-1)-step iteration.
        """
        if h < 1:
            raise ValueError("h must be >= 1")
        if self.is_empty:
            raise EmptyOperand("h-fold sumset of an empty set is undefined")
        acc, power = None, self
        while h:
            if h & 1:
                acc = power if acc is None else acc.sumset(power)
            h >>= 1
            if h:
                power = power.sumset(power)
        return acc

    def saturate(self, m: int) -> "EventuallyPeriodicSet":
        """All x >= 0 congruent mod m to some element of the set."""
        if m < 1:
            raise ValueError("saturation modulus must be positive")
        if self.is_empty:
            raise EmptyOperand("saturation of an empty set is undefined")
        classes = {f % m for f in self.finite_part}
        step = gcd(self.modulus, m)
        for r in self.residues:
            # the tail meets every class congruent to r modulo gcd(n, m)
            classes.update(range(r % step, m, step))
        return EventuallyPeriodicSet.from_parts((), 0, m, classes)

    def remove_finite(self, xs: Iterable[int]) -> "EventuallyPeriodicSet":
        """Canonical representation of S \\ X for a finite X ⊆ S."""
        removed = as_finite_set(xs)
        missing = [x for x in removed if x not in self]
        if missing:
            raise NotASubset(f"elements not in the set: {missing}")
        t = max(self.threshold, removed[-1] + 1)
        fmask = self._prefix_mask(t - 1) & ~_mask(removed)
        return object.__new__(EventuallyPeriodicSet)._store(
            fmask, t, self.modulus, self._rmask)

    def adjoin(self, xs: Iterable[int]) -> "EventuallyPeriodicSet":
        """Canonical representation of S ∪ X for a finite X."""
        extra = as_finite_set(xs)
        t = max(self.threshold, extra[-1] + 1)
        fmask = self._prefix_mask(t - 1) | _mask(extra)
        return object.__new__(EventuallyPeriodicSet)._store(
            fmask, t, self.modulus, self._rmask)

    # ------------------------------------------------------------------
    # predicates and invariants

    def _residue_view(self) -> tuple[int, int, int]:
        """(R, D = C - min C, delta = gcd(n, D)) of an infinite set, R and D
        as masks over Z/nZ, C = (F ∪ R) mod n; see :mod:`.invariants`."""
        n, cmask = self.modulus, self._class_mask()
        c0 = (cmask & -cmask).bit_length() - 1
        dmask = ((cmask | cmask << n) >> c0) & ((1 << n) - 1)
        return self._rmask, dmask, gcd(n, *_bits(dmask))

    def _class_mask(self) -> int:
        """C = (F ∪ R) mod n as a mask: F's mask folded in halves, each cut
        at a multiple of n, onto n bits (linear in its width), with R's."""
        n, f = self.modulus, self._fmask
        width = f.bit_length()
        while width > n:
            width = -(-width // (2 * n)) * n  # the least multiple >= half
            f = f >> width | f & ((1 << width) - 1)
        return f | self._rmask

    def is_cofinite(self) -> bool:
        """True iff N \\ S is finite (canonical tail covers every class)."""
        return self.modulus == 1 and self._rmask == 1

    def equal_up_to_finite(self, other: "EventuallyPeriodicSet") -> bool:
        """True iff the symmetric difference is finite."""
        return (self.modulus, self._rmask) == (other.modulus, other._rmask)

    def kneser_period(self, cap: int) -> int | None:
        """Least m <= cap with S ~ S^(m) (saturation changes only finitely
        many elements), or None if no such m exists up to the cap."""
        if cap < 1:
            raise ValueError("cap must be >= 1")
        if self.is_empty:
            raise EmptyOperand("kneser_period of an empty set is undefined")
        for m in range(1, cap + 1):
            if self.equal_up_to_finite(self.saturate(m)):
                return m
        return None

    def lower_density(self) -> Fraction:
        """Lower asymptotic density, exact.

        For an eventually periodic set the liminf of |S ∩ [1, n]| / n is
        attained along the tail, so it equals |residues| / modulus.
        """
        return Fraction(self._rmask.bit_count(), self.modulus)

    # ------------------------------------------------------------------
    # interchange format

    def to_json(self) -> dict:
        return {"finite": list(self.finite_part), "threshold": self.threshold,
                "modulus": self.modulus, "residues": _bits(self._rmask)}

    @classmethod
    def from_json(cls, obj: dict | str) -> "EventuallyPeriodicSet":
        """Parse the interchange form; the result is canonicalized.  An
        unknown field, or one of the wrong JSON type, raises ValueError."""
        fields = {"finite": [], "threshold": 0, "modulus": 1, "residues": []}
        obj = _json_object(obj, fields, "set")
        return cls.from_parts(*(_json_field(obj, k, v)
                                for k, v in fields.items()))

    def __repr__(self) -> str:
        if self.is_finite:
            return f"EventuallyPeriodicSet(finite={list(self.finite_part)})"
        return (f"EventuallyPeriodicSet(finite={list(self.finite_part)}, "
                f"threshold={self.threshold}, modulus={self.modulus}, "
                f"residues={sorted(self.residues)})")
