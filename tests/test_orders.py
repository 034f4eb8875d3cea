"""Order computations: both engines, cyclic orders, basis decisions."""

import pytest
from hypothesis import given, settings

from addbasis import (
    CyclicSubset,
    EventuallyPeriodicSet,
    NotABasisCertificate,
    NotACyclicBasis,
    OrderCapExceeded,
    cubic_family_instance,
    cyclic_order,
    is_asymptotic_basis,
    order,
    quadratic_family_instance,
    removable,
)
from conftest import periodic_sets

EPS = EventuallyPeriodicSet


class TestOrder:
    def test_naturals_have_order_one(self):
        res = order(EPS.naturals())
        assert res.order == 1
        # the bitset engine reports the tight witness
        assert order(EPS.naturals(),
                     method="bitset").cofinite_witness_threshold == 0

    def test_two_residue_core_mod_8(self):
        assert order(EPS.from_periodic(8, {1, 4})).order == 7

    def test_quadratic_core_mod_5(self):
        assert order(EPS.from_periodic(5, {2, 4})).order == 4

    def test_adjoined_ap_instance_with_hand_checked_certificate(self):
        # A = {0, 2} ∪ {x mod 8 in {1, 4}}.  1 + 2 + 4 = 7 gives the
        # residue class 7 with three summands (and 1 + 2 + (4 + 8m)
        # handles every larger member of the class), while two summands
        # reach only residues {0,...,6} mod 8, so the order is exactly 3.
        a = cubic_family_instance(1, 2).a
        two = a.h_fold(2)
        assert all(x not in two for x in (7, 15, 23, 31))
        three = a.h_fold(3)
        assert three.is_cofinite()
        assert all(7 + 8 * m in three for m in range(6))
        assert order(a).order == 3
        assert order(a, method="bitset").order == 3

    def test_finite_sets_are_never_bases(self):
        with pytest.raises(NotABasisCertificate):
            order(EPS.from_finite([0, 1, 2]))

    def test_delta_certificate(self):
        with pytest.raises(NotABasisCertificate) as err:
            order(EPS.from_periodic(2, {0}))
        assert "divisible by 2" in str(err.value)

    def test_cap_exceeded(self):
        with pytest.raises(OrderCapExceeded):
            order(EPS.from_periodic(8, {1, 4}), h_cap=6)

    def test_witness_threshold_is_valid(self):
        for method in ("residue", "bitset"):
            res = order(EPS.from_periodic(5, {2, 4}), method=method)
            fold = EPS.from_periodic(5, {2, 4}).h_fold(res.order)
            w = res.cofinite_witness_threshold
            probe = fold.prefix(w + 40)
            assert set(range(w, w + 41)) <= set(probe)
        # exactly two engines: any other method name is refused
        for method in ("auto", "Residue", ""):
            with pytest.raises(ValueError, match="unknown method"):
                order(EPS.from_periodic(5, {2, 4}), method=method)


class TestEngineAgreement:
    @pytest.mark.parametrize("d,k", [(1, 2), (1, 3), (2, 2), (3, 2)])
    def test_cubic_family(self, d, k):
        inst = cubic_family_instance(d, k)
        rest = inst.a.remove_finite(inst.x)
        for s in (inst.a, rest):
            assert order(s, method="bitset").order == \
                order(s, method="residue").order

    @pytest.mark.parametrize("h,mu", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_quadratic_family(self, h, mu):
        inst = quadratic_family_instance(h, mu)
        rest = inst.a.remove_finite(inst.x)
        for s in (inst.a, rest):
            assert order(s, method="bitset").order == \
                order(s, method="residue").order

    @given(periodic_sets(max_modulus=10, max_threshold=14,
                         allow_finite=False))
    @settings(max_examples=60, deadline=None)
    def test_random_sets(self, s):
        try:
            a = order(s, h_cap=64, method="residue").order
        except NotABasisCertificate:
            return
        except OrderCapExceeded:
            return
        assert order(s, h_cap=64, method="bitset").order == a

    @given(periodic_sets(max_modulus=8, max_threshold=10,
                         allow_finite=False))
    @settings(max_examples=40, deadline=None)
    def test_minimality(self, s):
        try:
            g = order(s, h_cap=40).order
        except (NotABasisCertificate, OrderCapExceeded):
            return
        assert s.h_fold(g).is_cofinite()
        if g > 1:
            assert not s.h_fold(g - 1).is_cofinite()


class TestCyclicOrder:
    def test_known_orders(self):
        assert cyclic_order(CyclicSubset(8, frozenset({1, 4}))) == 7
        assert cyclic_order(CyclicSubset(5, frozenset({1, 2}))) == 4

    def test_full_group_has_order_one(self):
        assert cyclic_order(CyclicSubset(6, frozenset(range(6)))) == 1

    def test_trivial_group(self):
        assert cyclic_order(CyclicSubset(1, frozenset({0}))) == 1

    @pytest.mark.parametrize("n,elems", [(4, {2}), (2, {0}), (6, {0, 2, 4}),
                                         (4, {0, 2}), (9, {0, 3, 6})])
    def test_non_bases_are_detected(self, n, elems):
        with pytest.raises(NotACyclicBasis):
            cyclic_order(CyclicSubset(n, frozenset(elems)))

    def test_singleton_generator(self):
        # the exact h-fold of {1} is the single class {h mod n}, so it
        # never covers for n > 1 despite generating the group
        with pytest.raises(NotACyclicBasis):
            cyclic_order(CyclicSubset(3, frozenset({1})))

    def test_cap_below_the_order(self):
        with pytest.raises(OrderCapExceeded):
            cyclic_order(CyclicSubset(8, frozenset({1, 4})), h_cap=3)

    def test_brute_force_small_groups(self):
        # independent reference: exact h-fold sums via python sets
        from itertools import combinations
        for n in range(1, 8):
            for size in range(1, n + 1):
                for elems in combinations(range(n), size):
                    state = set(elems)
                    expect = None
                    for h in range(1, 2 * n + 2):
                        if state == set(range(n)):
                            expect = h
                            break
                        state = {(s + c) % n for s in state for c in elems}
                    sub = CyclicSubset(n, frozenset(elems))
                    if expect is None:
                        with pytest.raises(NotACyclicBasis):
                            cyclic_order(sub)
                    else:
                        assert cyclic_order(sub) == expect


class TestCyclicConsistency:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_pure_periodic_order_equals_cyclic_order(self, n):
        from math import gcd
        for a in range(n):
            for b in range(a + 1, n):
                s = EPS.from_periodic(n, {a, b})
                sub = CyclicSubset(n, frozenset({a, b}))
                if gcd(b - a, n) == 1:
                    got = order(s).order
                    rho = cyclic_order(sub)
                    assert got == rho and got >= rho
                else:
                    with pytest.raises(NotABasisCertificate):
                        order(s)


class TestBasisDecision:
    def test_definite_yes(self):
        dec = is_asymptotic_basis(EPS.from_periodic(8, {1, 4}))
        assert dec.is_basis and dec.order == 7

    def test_definite_no(self):
        dec = is_asymptotic_basis(EPS.from_periodic(2, {0}))
        assert dec.is_basis is False and "divisible" in dec.certificate

    def test_finite_no(self):
        dec = is_asymptotic_basis(EPS.from_finite([3, 5]))
        assert dec.is_basis is False

    def test_unknown_at_cap(self):
        dec = is_asymptotic_basis(EPS.from_periodic(8, {1, 4}), h_cap=3)
        assert dec.kind == "unknown" and dec.is_basis is None and dec.h_cap == 3


class TestRemovable:
    def test_cubic_removal_is_allowed(self):
        inst = cubic_family_instance(1, 2)
        assert removable(inst.a, inst.x)

    def test_removal_that_breaks_the_gcd(self):
        a = EPS.from_periodic(2, {0}).adjoin([1])
        assert not removable(a, (1,))

    def test_quadratic_removal_is_allowed(self):
        inst = quadratic_family_instance(2, 2)
        assert removable(inst.a, inst.x)


class TestKlopschLevSmall:
    def test_exhaustive_up_to_ten(self):
        """Both cyclic-basis inequalities, checked against plain sets."""
        from itertools import combinations

        from addbasis import klopsch_lev_rhs
        for n in range(3, 11):
            for size in range(1, n + 1):
                for elems in combinations(range(n), size):
                    try:
                        rho = cyclic_order(CyclicSubset(n, frozenset(elems)))
                    except NotACyclicBasis:
                        continue
                    assert size * rho < 2 * n
                    if rho >= 2:
                        assert size <= klopsch_lev_rhs(n, rho)
