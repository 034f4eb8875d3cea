"""Invariants of finite sets and removal pairs."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addbasis import (
    EmptyComplement,
    EventuallyPeriodicSet,
    NoQualifyingPair,
    NotASubset,
    RemovalInstance,
    TooFewElements,
    d_of,
    delta,
    diam,
    eta,
    eta_with_witness,
    instance_invariants,
    mu,
    mu_with_witness,
)
from conftest import naive_eta, naive_mu, periodic_sets

EPS = EventuallyPeriodicSet


class TestDelta:
    def test_even_progression(self):
        assert delta([0, 2, 4]) == 2

    @pytest.mark.parametrize("d,k", [(1, 2), (2, 3), (3, 5)])
    def test_arithmetic_progression_has_delta_equal_to_step(self, d, k):
        assert delta([i * k for i in range(d + 1)]) == k

    def test_two_residue_tail(self):
        # differences of {1, 4, 9, 12, ...} include 3 and 8
        assert delta(EPS.from_periodic(8, {1, 4})) == 1

    def test_singleton_rejected(self):
        with pytest.raises(TooFewElements):
            delta([5])

    @given(periodic_sets(max_modulus=12, max_threshold=20))
    @example(EPS.from_periodic(6, {0}))  # the modulus alone gives 6
    @example(EPS.from_parts([3], 4, 6, {0}))  # class 3 only in F: 3
    @example(EPS.from_finite([3, 7, 15]))  # finite only: 4
    @settings(max_examples=80, deadline=None)
    def test_window_matches_long_prefix(self, s):
        # delta of a set with a tail comes from its residues, not a prefix
        from functools import reduce
        from math import gcd
        c = s.normalize()
        long = c.prefix(c.threshold + 12 * c.modulus)
        if len(long) < 2:
            with pytest.raises(TooFewElements):
                delta(s)
            return
        expect = reduce(gcd, (b - a for a, b in zip(long, long[1:])))
        assert delta(s) == expect


class TestDiamAndD:
    def test_diam_cases(self):
        assert diam([5]) == 0
        assert diam([0, 2]) == 2
        assert diam([0, 3, 6, 9]) == 9

    def test_d_for_arithmetic_progressions(self):
        for d, k in [(1, 2), (3, 4), (5, 2)]:
            xs = [i * k for i in range(d + 1)]
            assert d_of(xs) == d  # diam d*k over delta k

    def test_d_simple(self):
        assert d_of([0, 3, 6]) == 2
        assert d_of([0, 1, 5]) == 5

    def test_d_can_be_fractional(self):
        # diam 8, delta gcd(3, 8) = 1 -> integer; use {0, 2, 8}: gcd 2, d = 4
        assert d_of([0, 2, 8]) == 4
        assert d_of([0, 4, 6]) == Fraction(6, 2)

    def test_d_rejects_singletons(self):
        with pytest.raises(TooFewElements):
            d_of([3])


class TestEta:
    def test_two_progressions_with_small_x(self):
        a = EPS.from_periodic(5, {2, 4}).adjoin([0, 1])
        assert eta_with_witness(a, (0, 1)) == (2, (2, 4))

    def test_all_evens(self):
        a = EPS.from_periodic(2, {0})
        assert eta(a, (0, 2)) == 2

    def test_adjoined_ap_instance(self):
        a = EPS.from_periodic(8, {1, 4}).adjoin([0, 2])
        assert eta(a, (0, 2)) == 3  # pair (1, 4), diam(X) = 2

    def test_requires_subset(self):
        with pytest.raises(NotASubset):
            eta(EPS.from_periodic(2, {0}), (1,))

    def test_no_pair_when_x_is_all_of_a(self):
        with pytest.raises(NoQualifyingPair):
            eta(EPS.from_finite([0, 1, 3]), [0, 1, 3])


class TestMu:
    def test_quadratic_family_value(self):
        a = EPS.from_periodic(5, {2, 4}).adjoin([0, 1])
        assert mu_with_witness(a, (0, 1)) == (2, 2)

    def test_nearest_neighbour(self):
        a = EPS.from_parts([0, 1], 2, 7, {3})
        assert mu(a, (0,)) == 1

    def test_adjoined_ap_instance(self):
        a = EPS.from_periodic(8, {1, 4}).adjoin([0, 2])
        assert mu_with_witness(a, (0, 2)) == (2, 1)

    def test_remote_complement(self):
        # every element of A \ X lies far beyond the scan window
        a = EPS.from_parts([0], 1000, 7, {3}).adjoin([0])
        value, witness = mu_with_witness(a, (0,))
        assert witness == a.remove_finite([0]).min_element()
        assert value == witness

    def test_empty_complement_when_x_is_all_of_a(self):
        with pytest.raises(EmptyComplement):
            mu(EPS.from_finite([0, 1, 3]), [0, 1, 3])


class TestWindowsAgainstBruteForce:
    @given(periodic_sets(max_modulus=12, max_threshold=18,
                         allow_finite=False),
           st.integers(0, 3), st.data())
    # a wide gap: X = {0, 40}, and eta = 40 is the pair (58, 98) across
    # the gap 58..84 of A \ X, past T + 2n = 93; data=None takes the
    # first 1 + extra elements as X
    @example(EPS.from_parts([0, 40, 58], 80, 7, {0, 1}), 1, None)
    @settings(max_examples=60, deadline=None)
    def test_eta_mu_windows_suffice(self, a, extra, data):
        c = a.normalize()
        pool = c.prefix(c.threshold + 2 * c.modulus)
        size = min(1 + extra, len(pool))
        x = tuple(pool[:size]) if data is None else tuple(sorted(data.draw(
            st.sets(st.sampled_from(pool), min_size=size, max_size=size))))
        if c.remove_finite(x).is_finite:
            return
        wide = 10 * (c.threshold + c.modulus + (max(x) - min(x)) + 1)
        assert eta(a, x) == naive_eta(a, x, wide)
        assert mu(a, x) == naive_mu(a, x, wide)


class TestInstanceInvariants:
    def test_full_report(self):
        a = EPS.from_periodic(8, {1, 4}).adjoin([0, 2])
        inv = instance_invariants(RemovalInstance(a, (0, 2), ""))
        assert (inv.delta_x, inv.diam_x, inv.d_x) == (2, 2, 1)
        assert (inv.eta, inv.mu) == (3, 2)
        assert inv.to_json() == {
            "delta": 2, "diam": 2, "d": 1, "eta": 3, "mu": 2,
            "eta_witness": [1, 4], "mu_witness": 1,
        }

    def test_singleton_convention(self):
        a = EPS.naturals()
        inv = instance_invariants(RemovalInstance(a, (0,), ""))
        assert (inv.delta_x, inv.d_x, inv.diam_x) == (1, 0, 0)
        assert inv.eta == 1 and inv.mu == 1

    @given(periodic_sets(max_modulus=10, max_threshold=14,
                         allow_finite=False), st.data())
    @settings(max_examples=50, deadline=None)
    def test_relations(self, a, data):
        c = a.normalize()
        pool = c.prefix(c.threshold + 2 * c.modulus)
        size = min(data.draw(st.integers(1, 4)), len(pool))
        x = tuple(sorted(data.draw(
            st.sets(st.sampled_from(pool), min_size=size, max_size=size))))
        if c.remove_finite(x).is_finite:
            return
        inv = instance_invariants(RemovalInstance(a, x, ""))
        assert eta_with_witness(a, x) == (inv.eta, inv.eta_witness)
        assert mu_with_witness(a, x) == (inv.mu, inv.mu_witness)
        assert inv.eta >= inv.diam_x
        assert inv.mu >= inv.diam_x
        assert inv.diam_x % inv.delta_x == 0
        assert inv.mu == max(max(x), inv.mu_witness) - min(min(x),
                                                           inv.mu_witness)
        lo, hi = inv.eta_witness
        assert inv.eta == hi - lo and hi - lo >= inv.diam_x
