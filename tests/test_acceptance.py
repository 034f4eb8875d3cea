"""Acceptance suite: the seven pinned criteria, one test each.

Each test prints a single PASS/FAIL line (visible even under pytest's
capture) and then asserts.  Criteria 1 and 2 check the two construction
families cell by cell: G(A \\ X) against the families' design values,
the agreement of the two order engines, mu(A, X) = mu for the quadratic
family, and G(A) against its proven value.  The proven G(A) is the
classical design target except in the cubic row d = 1 (3k - 3, not
3k - 2) and the quadratic row h = 2 (floor((mu + 3)/2), which differs
from the target at mu = 3); the hand proofs are in ``proven_cubic_order``
and ``proven_quadratic_order``.
"""

import random
import time
from fractions import Fraction
from math import lcm

import pytest

from addbasis import (
    EventuallyPeriodicSet,
    SweepConfig,
    cubic_family_instance,
    cubic_family_orders,
    exhaustive_two_residue_sweep,
    klopsch_lev_exhaustive,
    mu,
    order,
    quadratic_family_instance,
    quadratic_family_orders,
    read_records,
    run_sweep,
)
from conftest import naive_eta, naive_h_fold_prefix, naive_mu, naive_sumset_prefix

EPS = EventuallyPeriodicSet


def announce(capsys, number: int, title: str, ok: bool, detail: str,
             started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} [{verdict}] {title}: {detail} "
              f"({time.time() - started:.1f}s)", flush=True)


def proven_cubic_order(d: int, k: int) -> int:
    """G(A) for ``cubic_family_instance(d, k)``: 3k - 3 when d = 1, else
    the design target 3k - 2 (confirmed by both engines for d <= 5, k <= 7).

    For d = 1, A = {0, k} ∪ {x ≡ 1, k^2 mod k^3}, and G(A) = 3k - 3 for
    every k >= 2:

    * upper bound: write r mod k^3 in base-k digits r0 + r1*k + r2*k^2.
      Then r0 tail elements ≡ 1, r1 copies of k and r2 tail elements
      ≡ k^2 give r, with 0 as padding, in at most 3k - 3 summands; if
      r0 = r2 = 0, use k tail elements ≡ k^2 instead, for at most 2k - 1.
    * lower bound: a + c*k + b*k^2 ≡ -1 (mod k^3) forces a >= k - 1.
      Writing a = (k - 1) + a'k, let jk = 1 + a' + c with j >= 1; then
      b ≡ -j (mod k), so a + b + c >= 2k - 2 + j(k - 1) >= 3k - 3.

    The argument is also in the ``cubic_family_orders`` docstring.
    """
    if d == 1:
        return 3 * k - 3
    return cubic_family_orders(d, k)[0]


def proven_quadratic_order(h: int, mu: int) -> int:
    """G(A) for ``quadratic_family_instance(h, mu)``: floor((mu + 3)/2)
    when h = 2, else the design target for mu <= h + 2 (confirmed by the
    residue engine for 3 <= h <= 10).

    For h = 2, n = 2mu + 1 and A = {0, 1} ∪ {x ≡ mu, 2mu mod n}:

    * 2mu ≡ -1, so wlog at most one summand is a tail element ≡ mu, and a
      large sum needs a tail summand.  With g summands the covered
      residues are [-g, g - 2] ∪ [mu - g + 1, mu + g - 1].
    * These cover Z/nZ iff g >= floor((mu + 3)/2).

    That is 3 at mu = 3, where the target gives 2, and agrees with the
    target at mu = 2 and mu = 4.  For h >= 3 the target fails beyond
    mu = h + 2 (G(A) = 6 at (3, 6), target 7), so this refuses there.
    The argument is also in the ``quadratic_family_orders`` docstring.
    """
    if h == 2:
        return (mu + 3) // 2
    if mu > h + 2:
        raise ValueError(f"no confirmed G(A) at (h={h}, mu={mu})")
    return quadratic_family_orders(h, mu)[0]


def test_criterion_1_cubic_construction_equalities(capsys):
    """order(A) = proven_cubic_order(d, k) (3k - 3 if d = 1, else 3k - 2)
    and order(A \\ X) = d*k^3 - 1 on {1,2,3}x{2,3,4}, by both engines."""
    t0 = time.time()
    failures = []
    for d in (1, 2, 3):
        for k in (2, 3, 4):
            inst = cubic_family_instance(d, k)
            rest = inst.a.remove_finite(inst.x)
            got = (order(inst.a, method="bitset").order,
                   order(rest, method="bitset").order)
            assert got == (order(inst.a).order, order(rest).order), \
                "engines disagree"
            want = (proven_cubic_order(d, k), cubic_family_orders(d, k)[1])
            if got != want:
                failures.append(
                    f"(d={d},k={k}): computed {got}, expected {want}")
    detail = "9/9 cells exact" if not failures else \
        f"{9 - len(failures)}/9 cells exact; " + "; ".join(failures)
    announce(capsys, 1, "cubic family order equalities", not failures,
             detail, t0)
    assert not failures, (
        "exact computation differs from the proven orders "
        "(G(A) = 3k - 3 if d = 1 else 3k - 2, G(A \\ X) = d*k^3 - 1): "
        + "; ".join(failures))


def test_criterion_2_quadratic_construction_equalities(capsys):
    """order(A \\ X) = h(h-1)mu, mu(A, X) = mu, and
    order(A) = proven_quadratic_order(h, mu) on {2..5}x{2..4}, with the
    bitset engine agreeing on both orders."""
    t0 = time.time()
    failures = []
    for h in (2, 3, 4, 5):
        for m in (2, 3, 4):
            inst = quadratic_family_instance(h, m)
            rest = inst.a.remove_finite(inst.x)
            want_a = proven_quadratic_order(h, m)
            want_rest = quadratic_family_orders(h, m)[1]
            got_rest = order(rest).order
            got_a = order(inst.a).order
            assert (order(inst.a, method="bitset").order,
                    order(rest, method="bitset").order) == (got_a, got_rest), \
                "engines disagree"
            got_mu = mu(inst.a, inst.x)
            if got_rest != want_rest:
                failures.append(
                    f"(h={h},mu={m}): G(A\\X) computed {got_rest}, "
                    f"expected {want_rest}")
            if got_mu != m:
                failures.append(f"(h={h},mu={m}): mu computed {got_mu}")
            if got_a != want_a:
                failures.append(
                    f"(h={h},mu={m}): G(A) computed {got_a}, "
                    f"expected {want_a}")
    detail = "12/12 cells exact" if not failures else \
        f"{12 - len(failures)}/12 checks exact; " + "; ".join(failures)
    announce(capsys, 2, "quadratic family order equalities", not failures,
             detail, t0)
    assert not failures, (
        "exact computation differs from the proven values "
        "(G(A) = floor((mu + 3)/2) if h = 2 else the design target, "
        "G(A \\ X) = h(h-1)mu, mu(A, X) = mu): " + "; ".join(failures))


def test_criterion_3_theorem_hood_suite(capsys, tmp_path):
    """Zero violations of the five proven removal bounds over the
    exhaustive two-residue sweep (n <= 40) plus both families.

    verify_instance raises BoundViolation on any failed inequality, so a
    clean completion with zero error rows is the assertion target.
    """
    t0 = time.time()
    two = exhaustive_two_residue_sweep(
        40, h_cap=256, out=str(tmp_path / "two_residue.jsonl"))
    cubic = run_sweep(SweepConfig(
        "cubic", {"d": {"min": 1, "max": 3}, "k": {"min": 2, "max": 4}},
        h_cap=256, out=str(tmp_path / "cubic.jsonl")))
    quad = run_sweep(SweepConfig(
        "quadratic", {"h": {"min": 2, "max": 5}, "mu": {"min": 2, "max": 5}},
        h_cap=256, out=str(tmp_path / "quadratic.jsonl")))
    total = two.records_written + cubic.records_written + quad.records_written
    errors = two.errors + cubic.errors + quad.errors
    # proven: A \ X lies in the core, so C = R = {a, b}, and R + kD with
    # D = {0, b - a} is a progression of k + 2 classes, so G(A \ X) = n - 1
    off = sum(rec["g"] != rec["params"]["n"] - 1
              for rec in read_records(tmp_path / "two_residue.jsonl"))
    # the enumeration is deterministic, so pin its exact cardinality
    ok = errors == 0 and two.records_written == 598_839 \
        and cubic.records_written == 9 and quad.records_written == 16 \
        and off == 0
    announce(capsys, 3, "theorem-hood over exhaustive sweeps", ok,
             f"{total} instances verified, 0 bound violations, "
             f"{errors} engine errors, {off} two-residue rows with "
             f"G(A \\ X) != n - 1", t0)
    assert ok


def bases_containing_zero(n: int) -> int:
    """Subsets of Z/nZ that contain 0 and lie in no proper subgroup, by
    Moebius inversion over the subgroups dZ/nZ: sum of mu(n/d) 2^(d-1)."""
    def moebius(m: int) -> int:
        primes = [p for p in range(2, m + 1)
                  if m % p == 0 and all(p % q for q in range(2, p))]
        square_free = all(m % (p * p) for p in primes)
        return (-1) ** len(primes) if square_free else 0
    return sum(moebius(n // d) * 2 ** (d - 1)
               for d in range(1, n + 1) if n % d == 0)


def test_criterion_4_klopsch_lev_exhaustive(capsys):
    """Divisor bound and |C| * rho < 2n for every basis of Z/nZ that
    contains 0, n <= 24.  Each subset is checked once per orbit under
    the affine maps x -> u(x - t), u a unit, and counted with the number
    of sets in its orbit that contain 0.  Every subset containing 0 that
    generates Z/nZ is a basis, so the count is a Moebius sum."""
    t0 = time.time()
    summary = klopsch_lev_exhaustive(24)
    expected = sum(bases_containing_zero(n) for n in range(1, 25))
    ok = summary["violations"] == 0 and \
        summary["bases_checked"] == expected == 16_772_858
    announce(capsys, 4, "cyclic basis bounds n<=24", ok,
             f"{summary['bases_checked']} bases, "
             f"max |C|*rho/2n = {summary['max_product_ratio']}", t0)
    assert ok


def test_criterion_5_oracle_equivalence(capsys):
    """500 randomized sumset/h_fold runs against the naive pairwise
    oracle; 200 randomized eta/mu runs against 10x windows."""
    t0 = time.time()
    rng = random.Random(20260809)

    def draw_set(max_mod, max_thr, max_res=10):
        n = rng.randint(1, max_mod)
        size = rng.randint(1, min(n, max_res))
        residues = rng.sample(range(n), size) if rng.random() < 0.9 else []
        t = rng.randint(0, max_thr)
        finite = [x for x in range(t) if rng.random() < 0.1]
        s = EPS.from_parts(finite, t, n, residues)
        return s if not s.is_empty else EPS.from_periodic(n, {n - 1})

    checked = 0
    for _ in range(350):
        while True:
            s1, s2 = draw_set(60, 100), draw_set(60, 100)
            if lcm(s1.normalize().modulus, s2.normalize().modulus) <= 700:
                break
        a, b = s1.normalize(), s2.normalize()
        period = lcm(a.modulus, b.modulus)
        bound = a.threshold + b.threshold + 4 * period
        window = bound - max(a.threshold, b.threshold) - period
        assert (s1 + s2).prefix(window) == naive_sumset_prefix(s1, s2, window)
        checked += 1
    for _ in range(150):
        s = draw_set(24, 40, max_res=6)
        h = rng.randint(2, 6)
        c = s.normalize()
        bound = h * (c.threshold + 2 * c.modulus) + 4 * c.modulus
        assert s.h_fold(h).prefix(bound) == naive_h_fold_prefix(s, h, bound)
        checked += 1

    window_checks = 0
    while window_checks < 200:
        a = draw_set(16, 24, max_res=8)
        c = a.normalize()
        if c.is_finite:
            continue
        pool = c.prefix(c.threshold + 2 * c.modulus)
        size = rng.randint(1, min(4, len(pool)))
        x = tuple(sorted(rng.sample(pool, size)))
        if c.remove_finite(x).is_finite:
            continue
        wide = 10 * (c.threshold + c.modulus + (max(x) - min(x)) + 1)
        from addbasis import eta as eta_fn
        assert eta_fn(a, x) == naive_eta(a, x, wide)
        assert mu(a, x) == naive_mu(a, x, wide)
        window_checks += 1

    announce(capsys, 5, "oracle equivalence", True,
             f"{checked} sumset/h_fold + {window_checks} eta/mu checks exact",
             t0)
    assert checked == 500 and window_checks == 200


def test_criterion_6_kneser_detection(capsys):
    """For 100 randomized positive-density sets, doubling admits a
    saturation period m <= 4 * modulus, found minimal.

    Sets are sampled with no off-pattern exceptional elements (pattern
    minus finitely many); an off-pattern exception in 2A would make every
    saturation differ infinitely from it, so the conclusion provably
    needs this restriction.
    """
    t0 = time.time()
    rng = random.Random(1729)
    found = 0
    for _ in range(100):
        n = rng.randint(1, 30)
        size = rng.randint(1, min(n, 6))
        residues = rng.sample(range(n), size)
        s = EPS.from_periodic(n, residues, threshold=rng.randint(0, 2 * n))
        low = s.prefix(s.normalize().threshold + 2 * n)
        drops = [x for x in low if rng.random() < 0.2]
        a = s.remove_finite(drops) if drops else s
        assert a.lower_density() > 0
        cap = 4 * a.normalize().modulus
        doubled = a.h_fold(2)
        m = doubled.kneser_period(cap)
        assert m is not None, (a, cap)
        assert doubled.equal_up_to_finite(doubled.saturate(m))
        for smaller in range(1, m):
            assert not doubled.equal_up_to_finite(doubled.saturate(smaller))
        found += 1
    announce(capsys, 6, "saturation period of doubled sets", True,
             f"{found}/100 found with verified minimality", t0)
    assert found == 100


def test_criterion_7_ratio_reproduction(capsys, tmp_path):
    """Exact rational identities of the sweep ratios against the nominal
    order parameters of both families."""
    t0 = time.time()
    out_c = tmp_path / "cubic.jsonl"
    run_sweep(SweepConfig("cubic",
                          {"d": {"min": 1, "max": 3}, "k": {"min": 2, "max": 5}},
                          h_cap=512, out=str(out_c)))
    for rec in read_records(out_c):
        d, k = rec["params"]["d"], rec["params"]["k"]
        h_nom = rec["h_nominal"]
        assert h_nom == 3 * k
        ratio = Fraction(rec["g"], d * h_nom**3)
        low = Fraction(1, 27) - Fraction(1, 27 * k**3 * d)
        assert low <= ratio <= Fraction(1, 27)
        assert ratio == low  # the identity is exact, epsilon = 0

    out_q = tmp_path / "quadratic.jsonl"
    run_sweep(SweepConfig("quadratic",
                          {"h": {"min": 2, "max": 5}, "mu": [2, 3]},
                          h_cap=512, out=str(out_q)))
    by_mu: dict[int, list[tuple[int, Fraction]]] = {}
    for rec in read_records(out_q):
        h, m = rec["params"]["h"], rec["params"]["mu"]
        nominal_ratio = Fraction(rec["g"], m * rec["h_nominal"] ** 2)
        assert nominal_ratio == Fraction(h - 1, h)
        by_mu.setdefault(m, []).append((h, nominal_ratio))
    for m, rows in by_mu.items():
        rows.sort()
        ratios = [r for _, r in rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:])), \
            f"nominal ratio not increasing for mu={m}"
    # against the computed order (2h - 2 for mu = 2), the per-order ratio
    # g / (mu * G(A)^2) = h / (4(h-1)) decreases toward 1/4
    computed = []
    for rec in read_records(out_q):
        if rec["params"]["mu"] == 2:
            computed.append((rec["params"]["h"],
                             Fraction(rec["g"], 2 * rec["h"] ** 2)))
    computed.sort()
    seq = [r for _, r in computed]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert all(r > Fraction(1, 4) for r in seq)
    assert seq[-1] == Fraction(5, 16)
    announce(capsys, 7, "sweep ratio identities", True,
             "cubic ratios equal 1/27 - 1/(27k^3 d) exactly; quadratic "
             "nominal ratios increase, per-order ratios decrease toward 1/4",
             t0)
