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
from itertools import accumulate, compress, count
from math import gcd, isqrt, lcm
from operator import add, lt
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


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to 0/1 bytes


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending, in one pass over
    its binary digits: run by run of zeros, which makes an int only per
    set bit, or digit by digit, which makes one per digit but less work
    per set bit.  The two cost the same at about one set bit in five
    (measured at widths 2,000 to 200,000, Python 3.11).  A list, so that
    a tuple made from it is allocated at its size (one grown from an
    iterator raised the peak RSS of long bitset runs by ~10%)."""
    digits = bin(mask)[:1:-1]
    if 5 * mask.bit_count() < len(digits):
        gaps = digits.split("1")  # the run of zeros below each set bit
        gaps.pop()
        return list(map(add, accumulate(map(len, gaps)), count()))
    return list(compress(count(), digits.encode().translate(_BITS)))


def _mask(xs: Iterable[int], width: int) -> int:
    """The mask with bit x set for each x in ``xs``, all in [0, width),
    built in a buffer of the mask's own size and converted once, so the
    cost is linear in width."""
    buf = bytearray((width + 7) >> 3)
    for x in xs:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


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


@dataclass(frozen=True)
class EventuallyPeriodicSet:
    """Immutable eventually periodic subset of N, canonical by construction.

    The fields must be structurally valid: a strictly increasing finite
    part inside [0, threshold), residues inside [0, modulus).  The public
    constructor checks that, then lowers the modulus to the minimal period
    and the threshold to the least point from which the periodic
    description holds; the library's own rebuilds skip the checks.
    Structural equality is therefore set equality, and :meth:`normalize`
    returns ``self``.  Outside equality, each value keeps the residue mask
    ``_rmask`` and, once a sumset needs it, the finite-part mask ``_fmask``.
    """

    finite_part: tuple[int, ...]
    threshold: int
    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        """Check the fields where data enters, at C speed (only a faulty
        finite part is scanned, for its first fault), then canonicalize."""
        finite, t, n, res = (self.finite_part, self.threshold, self.modulus,
                             self.residues)
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
        self._canonicalize(finite, t, n, res, None)

    def _canonicalize(self, finite, t, n, res, rmask: int | None) -> None:
        """Store valid fields in canonical form, keeping the residue mask
        as ``_rmask``.  A tail taken from a canonical set has its minimal
        period and comes with its mask ``rmask``; with None, the mask is
        built and the minimal period found."""
        if not res:
            t, m, rmask = (finite[-1] + 1 if finite else 0), 1, 0
        else:
            m = n
            if rmask is None:
                rmask = _mask(res, max(res) + 1)
                m = _min_period(rmask, n)
                if m < n:
                    rmask ^= rmask >> m << m  # the residues below m
                    res = frozenset(_bits(rmask))
            # lower the threshold as far as the periodic description stays
            # true; finite[:i] are the finite elements below t
            i = len(finite)
            while t > 0:
                present = i > 0 and finite[i - 1] == t - 1
                if present != ((t - 1) % m in res):
                    break
                t -= 1
                i -= present
            finite = finite[:i]
        # setattr: reading the __dict__ of a value that __init__ built
        # makes its later attribute reads ~3x slower
        for name, value in (("finite_part", finite), ("threshold", t),
                            ("modulus", m), ("residues", res),
                            ("_rmask", rmask)):
            object.__setattr__(self, name, value)

    def _with_prefix(self, finite, t: int) -> "EventuallyPeriodicSet":
        """``finite`` below t and this set's tail from t on, canonical;
        unchecked, as callers build ``finite`` strictly increasing below t."""
        out = object.__new__(EventuallyPeriodicSet)
        out._canonicalize(finite, t, self.modulus, self.residues, self._rmask)
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
        """Bitmask of all elements in [0, bound]; bit x set iff x in S: the
        stored finite-part mask with the tail pattern ORed in from the
        threshold on, the residue mask doubled until it spans the bound."""
        fmask = getattr(self, "_fmask", None)
        if fmask is None:  # computed once, on first use
            fmask = _mask(self.finite_part, self.threshold)
            object.__setattr__(self, "_fmask", fmask)
        mask = fmask & ((1 << (bound + 1)) - 1)
        if self.residues and self.threshold <= bound:
            pat, width = self._rmask, self.modulus
            while width <= bound:
                pat |= pat << width
                width *= 2
            mask |= pat & ((1 << (bound + 1)) - (1 << self.threshold))
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
        period.  The fields are therefore canonical as read, so no check
        or threshold walk runs.  The finite part and the residues are each
        decoded in one pass over ``bin()``, and both masks are kept for
        later sumsets."""
        t = ((mask ^ (mask >> period)) & ((1 << tail_start) - 1)).bit_length()
        full, s = (1 << period) - 1, t % period
        window = (mask >> t) & full
        rmask = (window << s | window >> (period - s)) & full
        m = _min_period(rmask, period)
        rmask &= (1 << m) - 1
        fmask = mask & ((1 << t) - 1)
        out = object.__new__(cls)
        out.__dict__.update(finite_part=tuple(_bits(fmask)), threshold=t,
                            modulus=m, residues=frozenset(_bits(rmask)),
                            _rmask=rmask, _fmask=fmask)
        return out

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
        for shift in _bits(mb):
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
        rmask = cmask = self._rmask
        for f in self.finite_part:
            cmask |= 1 << (f % n)
        c0 = (cmask & -cmask).bit_length() - 1
        dmask = ((cmask | cmask << n) >> c0) & ((1 << n) - 1)
        return rmask, dmask, gcd(n, *_bits(dmask))

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
