"""Explicit constructions, bound evaluators, and instance verification.

The two construction families here adjoin a small finite set X to a union
of two arithmetic progressions A* with a common modulus, so that removing
X blows the order of the basis up from O(h) to the order of A*:

* cubic family (parameters d >= 1, k >= 2): X = {0, k, ..., dk},
  n = d*k^3, A* = {x : x mod n in {1, d*k^2}}.  G(A \\ X) = n - 1 grows
  like d*h^3/27 against the nominal order parameter h = 3k.
* quadratic family (parameters h >= 2, mu >= 2): X = {0, 1},
  n = h(h-1)mu + 1, A* = {x : x mod n in {mu, h*mu}}.  G(A \\ X) = n - 1
  grows like mu*h^2.

Every bound evaluated here is a proven theorem, so ``verify_instance``
treats a violated inequality as a fatal implementation bug
(BoundViolation), never as a discovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (BoundViolation, NoQualifyingDivisor, NotASubset,
                     ZeroDensity)
from .invariants import InstanceInvariants, instance_invariants
from .orders import DEFAULT_H_CAP, _memo_order, order
from .periodic import (EventuallyPeriodicSet, _divisors, _json_field,
                       _json_object, as_finite_set)


# ----------------------------------------------------------------------
# construction families

@dataclass(frozen=True)
class RemovalInstance:
    """A basis A with a designated finite X ⊆ A whose removal is studied.

    X may be any iterable of naturals; it is stored as the sorted,
    duplicate-free tuple, so equal sets give equal, hashable instances.
    ``rest`` is A \\ X, computed once while the instance is validated.
    """

    a: EventuallyPeriodicSet
    x: tuple[int, ...]
    label: str
    rest: EventuallyPeriodicSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = as_finite_set(self.x)
        try:
            rest = self.a.remove_finite(x)
        except NotASubset as exc:
            raise ValueError(f"X must be a subset of A; {exc}") from None
        if rest.is_finite:
            raise ValueError("A \\ X must be infinite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rest", rest)

    def to_json(self) -> dict:
        return {"A": self.a.to_json(), "X": list(self.x), "label": self.label}

    @classmethod
    def from_json(cls, obj: dict | str) -> "RemovalInstance":
        obj = _json_object(obj, ("A", "X", "label"), "instance")
        a = obj.get("A")  # required: no default stands in for it
        if not isinstance(a, dict):
            raise ValueError(f"JSON field 'A' must be an object, got {a!r}")
        label, x = _json_field(obj, "label", ""), _json_field(obj, "X", [])
        return cls(EventuallyPeriodicSet.from_json(a), x, label)


def cubic_family_instance(d: int, k: int) -> RemovalInstance:
    """Two-progression core with an adjoined AP of difference k.

    X = {0, k, 2k, ..., dk}, n = d*k^3, tail residues {1, d*k^2}.
    """
    if d < 1 or k < 2:
        raise ValueError("need d >= 1 and k >= 2")
    n = d * k**3
    x = tuple(i * k for i in range(d + 1))
    core = EventuallyPeriodicSet.from_periodic(n, {1, d * k * k})
    return RemovalInstance(core.adjoin(x), x, f"cubic(d={d},k={k},h={3 * k})")


def cubic_family_orders(d: int, k: int) -> tuple[int, int]:
    """Design target orders (G(A), G(A \\ X)) = (3k - 2, d*k^3 - 1).

    These are the classical claimed values for the family.  Direct
    computation confirms G(A \\ X) throughout, and both engines confirm
    G(A) = 3k - 2 for 2 <= d <= 5, k <= 7.  When d = 1 the true order is
    G(A) = 3k - 3 for every k >= 2, so treat the first component as a
    target, not a theorem.  Here A = {0, k} ∪ {x ≡ 1, k^2 mod k^3}:

    * upper: write r mod k^3 in base-k digits r0 + r1*k + r2*k^2 and take
      r0 tail elements ≡ 1, r1 copies of k, r2 tail elements ≡ k^2, padded
      with 0 (if r0 = r2 = 0, k tail elements ≡ k^2 instead), so at most
      max(3(k - 1), 2k - 1) = 3k - 3 summands reach every large integer;
    * lower: a + c*k + b*k^2 ≡ -1 (mod k^3) forces a = (k - 1) + a'k,
      then 1 + a' + c = jk with j >= 1 and b ≡ -j (mod k), so
      a + b + c >= 2k - 2 + j(k - 1) >= 3k - 3.

    The acceptance suite asserts 3k - 3 for d = 1 and the target otherwise.
    """
    if d < 1 or k < 2:
        raise ValueError("need d >= 1 and k >= 2")
    return 3 * k - 2, d * k**3 - 1


def quadratic_family_instance(h: int, mu: int) -> RemovalInstance:
    """X = {0, 1}, n = h(h-1)mu + 1, tail residues {mu, h*mu}."""
    if h < 2 or mu < 2:
        raise ValueError("need h >= 2 and mu >= 2")
    n = h * (h - 1) * mu + 1
    core = EventuallyPeriodicSet.from_periodic(n, {mu, h * mu})
    return RemovalInstance(core.adjoin((0, 1)), (0, 1),
                           f"quadratic(h={h},mu={mu})")


def quadratic_family_orders(h: int, mu: int) -> tuple[int, int]:
    """Design target orders for the quadratic family.

    (2h - 2 if mu = 2 else 2h + mu - 5, h(h-1)mu).  As with the cubic
    family the removed-set order h(h-1)mu is confirmed computationally on
    the whole tested range; the G(A) component is a target, not a theorem.
    When h = 2 the true order is G(A) = floor((mu + 3)/2) for every
    mu >= 2 (3 at mu = 3, against a target of 2).  Here n = 2mu + 1 and
    A = {0, 1} ∪ {x ≡ mu, 2mu mod n}:

    * 2mu ≡ -1, so two tail summands ≡ mu can be traded for one ≡ -1 and
      a 0; a large sum needs a tail summand, so g summands reach exactly
      the residues [-g, g - 2] ∪ [mu - g + 1, mu + g - 1];
    * these cover Z/nZ iff 2g >= mu + 2, i.e. g >= floor((mu + 3)/2).

    The target also fails off h = 2: both engines compute G(A) = 6 at
    (h, mu) = (3, 6), against a target of 7.  For 3 <= h <= 10 and
    mu <= h + 5 the residue engine agrees with the target exactly when
    mu <= h + 2, so the target is confirmed only in that range.
    """
    if h < 2 or mu < 2:
        raise ValueError("need h >= 2 and mu >= 2")
    g_a = 2 * h - 2 if mu == 2 else 2 * h + mu - 5
    return g_a, h * (h - 1) * mu


# ----------------------------------------------------------------------
# bound evaluators (right-hand sides)

def removal_bound_d(h: int, d: int) -> int:
    """h(h+3)/2 + d * h(h-1)(h+4)/6, exact in integers: both quotients
    are integers, and so is d = diam(X) / delta(X)."""
    return h * (h + 3) // 2 + d * (h * (h - 1) * (h + 4) // 6)


def removal_bound_eta(h: int, eta: int) -> int:
    """eta * (h^2 - 1) + h + 1."""
    return eta * (h * h - 1) + h + 1


def removal_bound_mu(h: int, mu: int) -> int:
    """h*mu*(h*mu + 3)/2 (always an integer)."""
    hm = h * mu
    return hm * (hm + 3) // 2


def removal_bound_mu_improved(h: int, mu: int) -> int:
    """4h(2h*mu + 1), linear in mu and quadratic in h."""
    return 4 * h * (2 * h * mu + 1)


def plagne_bounds(h: int) -> tuple[int, int]:
    """Single-element-removal extremal order window:
    floor(h(h+4)/3) <= X(h) <= h(h+1)/2 + ceil((h-1)/3)."""
    lower = h * (h + 4) // 3
    upper = h * (h + 1) // 2 + (h + 1) // 3  # ceil((h-1)/3)
    return lower, upper


def klopsch_lev_rhs(n: int, rho: int) -> int:
    """max over divisors d | n with d >= rho + 1 of
    (n/d) * (floor((d-2)/(rho-1)) + 1)."""
    if rho < 2:
        raise ValueError("rho must be >= 2")
    vals = [(n // d) * ((d - 2) // (rho - 1) + 1)
            for d in _divisors(n) if d >= rho + 1]
    if not vals:
        raise NoQualifyingDivisor(f"no divisor of {n} is >= {rho + 1}")
    return max(vals)


def density_order_bound(s: EventuallyPeriodicSet) -> int:
    """floor(4 / lower_density(s)) = floor(4n / |R|): order bound for any
    asymptotic basis of positive lower density."""
    if s.is_finite:
        raise ZeroDensity("set has zero lower density")
    return 4 * s.modulus // s._rmask.bit_count()


# ----------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class BoundReport:
    """Everything computed while verifying one removal instance.

    ``flags`` maps bound names to satisfaction booleans (None when a
    bound does not apply, e.g. the single-removal window for |X| > 1).
    verify_instance only ever returns reports whose applicable flags are
    all True; a False flag raises BoundViolation instead.
    """

    label: str
    h: int
    g: int
    invariants: InstanceInvariants
    rhs_single_lower: int
    rhs_single_upper: int
    rhs_d: int
    rhs_eta: int
    rhs_mu: int
    rhs_mu_improved: int
    rhs_density_removed: int
    rhs_density_base: int
    flags: dict
    h_witness: int
    g_witness: int

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "h": self.h,
            "g": self.g,
            "invariants": self.invariants.to_json(),
            "rhs": {
                "single_lower": self.rhs_single_lower,
                "single_upper": self.rhs_single_upper,
                "d": self.rhs_d,
                "eta": self.rhs_eta,
                "mu": self.rhs_mu,
                "mu_improved": self.rhs_mu_improved,
                "density_removed": self.rhs_density_removed,
                "density_base": self.rhs_density_base,
            },
            "flags": dict(self.flags),
            "witness": {"h_cofinite_from": self.h_witness,
                        "g_cofinite_from": self.g_witness},
        }


def verify_instance(inst: RemovalInstance, h_cap: int = DEFAULT_H_CAP,
                    memo: dict | None = None) -> BoundReport:
    """Compute h = G(A), g = G(A \\ X) with the residue engine, all
    invariants and bound RHS values, and assert every applicable bound.

    A sweep task passes one ``memo`` dict for all its instances, and
    both orders then go through ``orders._memo_order``; without it, both
    come from ``order``.  Raises BoundViolation on any failed inequality
    (a bug by definition) and propagates engine errors
    (NotABasisCertificate, OrderCapExceeded) for ineligible instances.
    """
    a, x, rest = inst.a, inst.x, inst.rest
    if memo is None:
        res_a, res_rest = order(a, h_cap), order(rest, h_cap)
    else:
        res_a = _memo_order(a, h_cap, memo)
        res_rest = _memo_order(rest, h_cap, memo)
    h, g = res_a.order, res_rest.order
    inv = instance_invariants(inst)

    lower, upper = plagne_bounds(h)
    rhs_d = removal_bound_d(h, inv.d_x)
    rhs_eta = removal_bound_eta(h, inv.eta)
    rhs_mu = removal_bound_mu(h, inv.mu)
    rhs_mu_imp = removal_bound_mu_improved(h, inv.mu)
    rhs_dens_rest = density_order_bound(rest)
    rhs_dens_base = density_order_bound(a)

    flags = {
        "d_bound": g <= rhs_d,
        "eta_bound": g <= rhs_eta,
        "mu_bound": g <= rhs_mu,
        "mu_improved_bound": g <= rhs_mu_imp,
        "density_removed": g <= rhs_dens_rest,
        "density_base": h <= rhs_dens_base,
        "single_removal_upper": g <= upper if len(x) == 1 else None,
    }
    failed = [name for name, ok in flags.items() if ok is False]
    report = BoundReport(
        label=inst.label, h=h, g=g, invariants=inv,
        rhs_single_lower=lower, rhs_single_upper=upper,
        rhs_d=rhs_d, rhs_eta=rhs_eta, rhs_mu=rhs_mu,
        rhs_mu_improved=rhs_mu_imp,
        rhs_density_removed=rhs_dens_rest, rhs_density_base=rhs_dens_base,
        flags=flags,
        h_witness=res_a.cofinite_witness_threshold,
        g_witness=res_rest.cofinite_witness_threshold,
    )
    if failed:
        raise BoundViolation(
            f"proven bounds failed on {inst.label}: {failed}; "
            f"report: {json.dumps(report.to_json(), sort_keys=True)}")
    return report
