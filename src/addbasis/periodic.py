"""Exact algebra of eventually periodic subsets of the natural numbers.

A set is stored as a finite exceptional prefix plus a periodic tail:

    S = finite_part  ∪  { x >= threshold : (x mod modulus) in residues }

Every subset of N that is "eventually periodic" (finitely many exceptions
to a union of arithmetic progressions with a common modulus) has a unique
canonical representation of this form: the modulus is the minimal eventual
period, the threshold is the least point from which the periodic
description is correct, and the finite part holds exactly the elements
below the threshold.  Every value is brought into this form when it is
constructed, so two values are structurally equal iff they denote the
same subset of N.

Sumsets are computed exactly.  If S1 has threshold T1 and modulus n1, and
S2 likewise, then S1 + S2 is periodic with period N = lcm(n1, n2) from
T1 + T2 + N onwards (split any sum a + b: if a < T1 + N then
b > (a+b) - T1 - N >= T2, so one summand always sits in a periodic tail
and absorbs a shift by N).  We therefore convolve bitmask prefixes of
length T1 + T2 + 4N, read the tail off a window, and verify the claimed
periodicity over the remaining three windows as a bug trap.

All values are immutable; operations are pure functions returning
canonical values, so instances may be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
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
    out = sorted(set(xs))
    if not out:
        raise ValueError("finite set must be nonempty")
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"finite set elements must be ints, got {x!r}")
        if x < 0:
            raise ValueError(f"finite set elements must be >= 0, got {x}")
    return _FiniteSet(out)


def _json_keys(obj, keys: Iterable[str], what: str) -> None:
    """Refuse any key of ``obj`` outside ``keys``; ``what`` leads the error."""
    unknown = sorted(set(obj) - set(keys)) if isinstance(obj, dict) else []
    if unknown:
        raise ValueError(f"{what} {unknown}; valid: {list(keys)}")


def _json_field(obj, key: str, default: int | list):
    """``obj[key]`` (``default`` when absent) of a parsed JSON object,
    checked to have the default's type: an int or a list of ints."""
    v = obj.get(key, default) if isinstance(obj, dict) else None
    kind = "a list of ints" if isinstance(default, list) else "an int"
    if isinstance(v, list) != isinstance(default, list) or any(
            type(e) is not int for e in (v if isinstance(v, list) else [v])):
        raise ValueError(f"JSON field {key!r} must be {kind}, got {v!r}")
    return v


def _mask_bits(mask: int) -> list[int]:
    """Positions of set bits, ascending.

    Meant for masks with few set bits: each one peels the lowest bit off
    the whole mask, so the cost is set bits * width.  A dense prefix is
    decoded in one pass by ``_from_prefix_mask`` instead."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to 0/1 bytes


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class EventuallyPeriodicSet:
    """Immutable eventually periodic subset of N, canonical by construction.

    The fields must be structurally valid: a strictly increasing finite
    part inside [0, threshold), residues inside [0, modulus).  Construction
    checks that, then lowers the modulus to the minimal period and the
    threshold to the least point from which the periodic description holds.
    Structural equality is therefore set equality, and :meth:`normalize`
    returns ``self``.
    """

    finite_part: tuple[int, ...]
    threshold: int
    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        self._canonicalize(find_period=True)

    def _canonicalize(self, find_period: bool) -> None:
        """Check the fields, then rewrite them in place into the canonical
        form while the value is being constructed.  A tail taken from a
        canonical set has its minimal period: only find it if asked."""
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if not all(0 <= r < self.modulus for r in self.residues):
            raise ValueError("residues must lie in [0, modulus)")
        prev = -1
        for x in self.finite_part:
            if x <= prev:
                raise ValueError("finite part must be strictly increasing")
            if x < 0 or x >= self.threshold:
                raise ValueError("finite part elements must lie in [0, threshold)")
            prev = x
        finite, res = self.finite_part, self.residues
        if not res:
            t, m = (finite[-1] + 1 if finite else 0), 1
        else:
            n = m = self.modulus
            if find_period:
                m = next(m for m in _divisors(n)
                         if all((r + m) % n in res for r in res))
                if m < n:
                    res = frozenset(r % m for r in res)
            # lower the threshold as far as the periodic description stays
            # true; finite[:i] are the finite elements below t
            t, i = self.threshold, len(finite)
            while t > 0:
                present = i > 0 and finite[i - 1] == t - 1
                if present != ((t - 1) % m in res):
                    break
                t -= 1
                i -= present
            finite = finite[:i]
        for name, value in (("finite_part", finite), ("threshold", t),
                            ("modulus", m), ("residues", res)):
            object.__setattr__(self, name, value)

    def _with_prefix(self, finite, t: int) -> "EventuallyPeriodicSet":
        """``finite`` below t and this set's tail from t on, canonical."""
        out = object.__new__(EventuallyPeriodicSet)
        out.__dict__.update(finite_part=finite, threshold=t,
                            modulus=self.modulus, residues=self.residues)
        out._canonicalize(find_period=False)
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_parts(
        cls,
        finite: Iterable[int] = (),
        threshold: int = 0,
        modulus: int = 1,
        residues: Iterable[int] = (),
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
        if x < 0:
            return False
        if x >= self.threshold:
            return x % self.modulus in self.residues
        return x in self.finite_part

    @property
    def is_empty(self) -> bool:
        return not self.finite_part and not self.residues

    @property
    def is_finite(self) -> bool:
        return not self.residues

    def min_element(self) -> int:
        """Smallest element; raises EmptyOperand on the empty set.

        Finite-part elements all lie below the threshold, so they precede
        every tail element.
        """
        if self.finite_part:
            return self.finite_part[0]
        if not self.residues:
            raise EmptyOperand("empty set has no minimum")
        t, n = self.threshold, self.modulus
        return min(t + (r - t) % n for r in self.residues)

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
        """Bitmask of all elements in [0, bound]; bit x set iff x in S.

        The finite part is written as binary digits, bit x at digit
        bound - x, and converted once, so the cost is linear in bound."""
        digits = bytearray(b"0") * (bound + 1)
        for x in self.finite_part:
            if x > bound:
                break
            digits[bound - x] = 49  # ord("1")
        mask = int(digits, 2)
        if self.residues and self.threshold <= bound:
            n = self.modulus
            pat = 0
            for r in self.residues:
                pat |= 1 << r
            width = n
            while width <= bound:
                pat |= pat << width
                width *= 2
            pat &= (1 << (bound + 1)) - 1
            mask |= pat & ~((1 << self.threshold) - 1)
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
        for x >= t, S(x) = S(x + kP) = S(x + kP + m) = S(x + m).  The
        residues come from the window at t; the constructor still checks
        the fields and finds the minimal period, and its threshold loop
        stops at its first step.  The finite part is read off the binary
        digits below t in one pass."""
        t = ((mask ^ (mask >> period)) & ((1 << tail_start) - 1)).bit_length()
        window = (mask >> t) & ((1 << period) - 1)
        residues = frozenset((t + j) % period for j in _mask_bits(window))
        digits = bin(mask & ((1 << t) - 1))[:1:-1].encode().translate(_BITS)
        # through a list: a tuple built straight from compress grows by
        # resizing, and raised the peak RSS of long bitset runs by ~10%
        finite = tuple(list(compress(range(t), digits)))
        return cls(finite, t, period, residues)

    # ------------------------------------------------------------------
    # arithmetic

    def sumset(self, other: "EventuallyPeriodicSet") -> "EventuallyPeriodicSet":
        """Exact sumset {a + b : a in self, b in other}, canonical."""
        a, b = self, other
        if a.is_empty or b.is_empty:
            raise EmptyOperand("sumset of an empty set is undefined")
        period = lcm(a.modulus, b.modulus)
        tail_start = a.threshold + b.threshold + period
        bound = tail_start + 3 * period
        ma = a._prefix_mask(bound)
        mb = b._prefix_mask(bound)
        if mb.bit_count() > ma.bit_count():
            ma, mb = mb, ma
        acc = 0
        for shift in _mask_bits(mb):
            acc |= ma << shift
        acc &= (1 << (bound + 1)) - 1
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
        acc: EventuallyPeriodicSet | None = None
        power = self
        while h:
            if h & 1:
                acc = power if acc is None else acc.sumset(power)
            h >>= 1
            if h:
                power = power.sumset(power)
        assert acc is not None
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
        gone = set(removed)
        finite = tuple(x for x in self.prefix(t - 1) if x not in gone)
        return self._with_prefix(finite, t)

    def adjoin(self, xs: Iterable[int]) -> "EventuallyPeriodicSet":
        """Canonical representation of S ∪ X for a finite X."""
        extra = as_finite_set(xs)
        t = max(self.threshold, extra[-1] + 1)
        finite = tuple(sorted(set(self.prefix(t - 1)).union(extra)))
        return self._with_prefix(finite, t)

    # ------------------------------------------------------------------
    # predicates and invariants

    def _residue_view(self) -> tuple[int, int, int]:
        """(R, D = C - min C, delta = gcd(n, D)) of an infinite set, R and D
        as masks over Z/nZ, C = (F ∪ R) mod n; see :mod:`.invariants`."""
        n = self.modulus
        rmask = cmask = sum(1 << r for r in self.residues)
        for f in self.finite_part:
            cmask |= 1 << (f % n)
        c0 = (cmask & -cmask).bit_length() - 1
        dmask = ((cmask | cmask << n) >> c0) & ((1 << n) - 1)
        return rmask, dmask, gcd(n, *_mask_bits(dmask))

    def is_cofinite(self) -> bool:
        """True iff N \\ S is finite (canonical tail covers every class)."""
        return self.modulus == 1 and bool(self.residues)

    def equal_up_to_finite(self, other: "EventuallyPeriodicSet") -> bool:
        """True iff the symmetric difference is finite."""
        return (self.modulus, self.residues) == (other.modulus, other.residues)

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
        if not self.residues:
            return Fraction(0)
        return Fraction(len(self.residues), self.modulus)

    # ------------------------------------------------------------------
    # interchange format

    def to_json(self) -> dict:
        return {
            "finite": list(self.finite_part),
            "threshold": self.threshold,
            "modulus": self.modulus,
            "residues": sorted(self.residues),
        }

    @classmethod
    def from_json(cls, obj: dict | str) -> "EventuallyPeriodicSet":
        """Parse the interchange form; the result is canonicalized.  An
        unknown field, or one of the wrong JSON type, raises ValueError."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        fields = {"finite": [], "threshold": 0, "modulus": 1, "residues": []}
        _json_keys(obj, fields, "set has no field")
        return cls.from_parts(*(_json_field(obj, k, v)
                                for k, v in fields.items()))

    def __repr__(self) -> str:
        if self.is_finite:
            return f"EventuallyPeriodicSet(finite={list(self.finite_part)})"
        return (f"EventuallyPeriodicSet(finite={list(self.finite_part)}, "
                f"threshold={self.threshold}, modulus={self.modulus}, "
                f"residues={sorted(self.residues)})")
