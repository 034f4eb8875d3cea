"""Constructions, bound formulas, and instance verification."""

import json
import tracemalloc
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addbasis import (
    EventuallyPeriodicSet,
    NoQualifyingDivisor,
    RemovalInstance,
    ZeroDensity,
    cubic_family_instance,
    cubic_family_orders,
    density_order_bound,
    klopsch_lev_rhs,
    order,
    plagne_bounds,
    quadratic_family_instance,
    quadratic_family_orders,
    removal_bound_d,
    removal_bound_eta,
    removal_bound_mu,
    removal_bound_mu_improved,
    verify_instance,
)
from addbasis.sweeps import _build_instance, _two_residue_params
from conftest import naive_h_fold_prefix, periodic_sets

EPS = EventuallyPeriodicSet


def assert_naive_order(a, g, missed):
    """Sums of g - 1 elements of A miss every element of the class
    ``missed`` mod n in (2n, 8n], while sums of g elements cover (2n, 8n].

    ``naive_h_fold_prefix`` shares no code with the order engines.
    """
    n = a.modulus
    window = range(2 * n + 1, 8 * n + 1)
    fewer = set(naive_h_fold_prefix(a, g - 1, 8 * n))
    enough = set(naive_h_fold_prefix(a, g, 8 * n))
    assert [x for x in window if x % n == missed and x in fewer] == []
    assert [x for x in window if x not in enough] == []


class TestCubicFamily:
    @pytest.mark.parametrize("d,k,x,n,residues", [
        (1, 2, (0, 2), 8, {1, 4}),
        (2, 2, (0, 2, 4), 16, {1, 8}),
        (1, 3, (0, 3), 27, {1, 9}),
    ])
    def test_structure(self, d, k, x, n, residues):
        inst = cubic_family_instance(d, k)
        assert inst.x == x
        rest = inst.a.remove_finite(inst.x)
        assert rest == EPS.from_periodic(n, residues)
        assert f"d={d}" in inst.label and f"k={k}" in inst.label

    @pytest.mark.parametrize("d,k,expect", [
        (1, 2, (4, 7)), (1, 3, (7, 26)), (2, 2, (4, 15)),
    ])
    def test_target_order_formula(self, d, k, expect):
        assert cubic_family_orders(d, k) == expect

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_d1_order_is_3k_minus_3(self, k):
        # proven in the cubic_family_orders docstring for every k >= 2
        a = cubic_family_instance(1, k).a
        assert order(a).order == 3 * k - 3
        if k <= 5:
            assert order(a, method="bitset").order == 3 * k - 3

    def test_d1_order_by_naive_sums(self):
        # n = 8: the class 7 needs three summands, e.g. 1 + 2 + (4 + 8m)
        assert_naive_order(cubic_family_instance(1, 2).a, 3, 7)

    def test_target_ratio_identity(self):
        # d*k^3 - 1 == d*(3k)^3/27 - 1 exactly, for every tested pair
        for d in (1, 2, 3):
            for k in (2, 3, 4):
                g = cubic_family_orders(d, k)[1]
                assert 27 * (g + 1) == d * (3 * k) ** 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cubic_family_instance(0, 2)
        with pytest.raises(ValueError):
            cubic_family_instance(1, 1)


class TestQuadraticFamily:
    @pytest.mark.parametrize("h,mu,n,residues", [
        (2, 2, 5, {2, 4}),
        (3, 2, 13, {2, 6}),
        (2, 3, 7, {3, 6}),
    ])
    def test_structure(self, h, mu, n, residues):
        inst = quadratic_family_instance(h, mu)
        assert inst.x == (0, 1)
        assert inst.a.remove_finite(inst.x) == EPS.from_periodic(n, residues)
        assert inst.rest == EPS.from_periodic(n, residues)

    @pytest.mark.parametrize("h,mu,expect", [
        (2, 2, (2, 4)), (3, 3, (4, 18)), (2, 4, (3, 8)),
    ])
    def test_target_order_formula(self, h, mu, expect):
        assert quadratic_family_orders(h, mu) == expect

    @pytest.mark.parametrize("mu", range(2, 13))
    def test_h2_order_is_floor_mu_plus_3_over_2(self, mu):
        # proven in the quadratic_family_orders docstring for every mu >= 2
        a = quadratic_family_instance(2, mu).a
        assert order(a).order == (mu + 3) // 2
        assert order(a, method="bitset").order == (mu + 3) // 2

    def test_h2_order_by_naive_sums(self):
        # n = 7: the class 1 needs three summands, e.g. 1 + 1 + (6 + 7m)
        assert_naive_order(quadratic_family_instance(2, 3).a, 3, 1)

    def test_target_fails_beyond_mu_h_plus_2(self):
        a = quadratic_family_instance(3, 6).a
        assert quadratic_family_orders(3, 6)[0] == 7
        assert order(a).order == order(a, method="bitset").order == 6


class TestBoundFormulas:
    def test_removal_bound_d(self):
        assert removal_bound_d(4, 1) == 30
        assert removal_bound_d(1, 7) == 2
        assert isinstance(removal_bound_d(4, 1), int)

    @given(st.integers(1, 300), st.integers(0, 60))
    def test_removal_bound_d_matches_the_fraction_formula(self, h, d):
        # d = diam(X) / delta(X) is an int, and so is the bound
        want = Fraction(h * (h + 3), 2) + d * Fraction(
            h * (h - 1) * (h + 4), 6)
        got = removal_bound_d(h, d)
        assert got == want
        assert isinstance(got, int)

    def test_removal_bound_eta(self):
        assert removal_bound_eta(2, 2) == 9
        assert removal_bound_eta(4, 3) == 50

    def test_removal_bound_mu(self):
        assert removal_bound_mu(2, 2) == 14
        assert removal_bound_mu(4, 2) == 44

    def test_removal_bound_mu_improved(self):
        assert removal_bound_mu_improved(2, 2) == 72
        assert removal_bound_mu_improved(1, 1) == 12
        assert removal_bound_mu_improved(3, 2) == 156

    def test_plagne_window(self):
        assert plagne_bounds(1) == (1, 1)
        assert plagne_bounds(3) == (7, 7)
        # floor(6*10/3) = 20; 21 + ceil(5/3) = 23
        assert plagne_bounds(6) == (20, 23)
        for h in range(1, 200):
            assert plagne_bounds(h)[1] == h * (h + 1) // 2 + ceil(
                Fraction(h - 1, 3))

    def test_klopsch_lev_rhs(self):
        assert klopsch_lev_rhs(8, 7) == 2
        assert klopsch_lev_rhs(6, 2) == 5
        assert klopsch_lev_rhs(5, 4) == 2

    def test_klopsch_lev_rhs_no_divisor(self):
        with pytest.raises(NoQualifyingDivisor):
            klopsch_lev_rhs(6, 7)

    def test_density_order_bound(self):
        assert density_order_bound(EPS.from_periodic(5, {2, 4})) == 10
        assert density_order_bound(EPS.naturals()) == 4
        assert density_order_bound(EPS.from_periodic(3, {0})) == 12

    @given(periodic_sets(allow_finite=False))
    def test_density_order_bound_is_floor_of_four_over_density(self, s):
        assert density_order_bound(s) == floor(4 / s.lower_density())

    def test_density_order_bound_rejects_finite(self):
        with pytest.raises(ZeroDensity):
            density_order_bound(EPS.from_finite([1, 2]))


class TestVerifyInstance:
    def test_cubic_instance_report(self):
        report = verify_instance(cubic_family_instance(1, 2))
        assert (report.h, report.g) == (3, 7)
        inv = report.invariants
        assert (inv.d_x, inv.eta, inv.mu) == (1, 3, 2)
        assert report.rhs_d == removal_bound_d(3, 1)
        assert report.rhs_eta == removal_bound_eta(3, 3)
        assert report.rhs_mu == removal_bound_mu(3, 2)
        assert report.rhs_mu_improved == removal_bound_mu_improved(3, 2)
        assert report.rhs_density_removed == 16  # density 2/8
        assert all(v for v in report.flags.values() if v is not None)
        assert report.flags["single_removal_upper"] is None

    def test_quadratic_instance_report(self):
        report = verify_instance(quadratic_family_instance(2, 2))
        assert (report.h, report.g) == (2, 4)
        assert report.g <= report.rhs_mu == 14
        assert report.g <= report.rhs_mu_improved == 72

    def test_trivial_single_removal(self):
        inst = RemovalInstance(EPS.naturals(), (0,), "naturals-minus-zero")
        report = verify_instance(inst)
        assert (report.h, report.g) == (1, 1)
        assert report.flags["single_removal_upper"] is True
        assert all(v for v in report.flags.values() if v is not None)

    def test_sparse_set_costs_no_threshold_sized_work(self):
        # the cost model is sparse: a threshold of 10**12 costs no memory
        # of its size, and an O(T)-bit mask fails at once (MemoryError)
        # either X leaves a finite part 10**12 below the tail of A \\ X,
        # so the mask scan of eta moves its tail window down to it
        top = 10**12
        for x, eta_witness, mu_witness in (([0], (top, top + 1), 5),
                                           ([5], (top, top + 1), 0)):
            obj = {"A": {"finite": [0, 5], "threshold": top, "modulus": 3,
                         "residues": [1, 2]}, "X": x}
            tracemalloc.start()
            report = verify_instance(
                RemovalInstance.from_json(json.dumps(obj)))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            inv = report.invariants
            assert (report.h, report.g, inv.eta, inv.mu) == (2, 2, 1, 5)
            assert (inv.eta_witness, inv.mu_witness) == (eta_witness,
                                                         mu_witness)
            assert peak < 1 << 16

    def test_instances_stay_masks_through_verify(self):
        # orders, invariants and bounds read A and A \\ X as their four
        # ints: verifying decodes neither view of either set
        cores, memo = {}, {}
        insts = [_build_instance("two_residue", p, cores)[0]
                 for p in _two_residue_params(9)]  # one sweep task
        for inst in insts:
            verify_instance(inst, memo=memo)
        cells = [cubic_family_instance(3, 4), quadratic_family_instance(3, 4)]
        for inst in cells:
            verify_instance(inst)
        for inst in insts + cells:
            for s in (inst.a, inst.rest):
                assert not {"finite_part", "residues"} & set(vars(s))

    def test_report_json_shape(self):
        payload = verify_instance(cubic_family_instance(1, 2)).to_json()
        blob = json.loads(json.dumps(payload))
        assert set(blob) == {"label", "h", "g", "invariants", "rhs",
                             "flags", "witness"}
        assert blob["rhs"]["d"] == 16  # h(h+3)/2 + 1*h(h-1)(h+4)/6 at h=3


class TestRemovalInstanceValidation:
    def test_x_must_be_subset(self):
        with pytest.raises(ValueError):
            RemovalInstance(EPS.from_periodic(2, {0}), (1,), "bad")

    def test_complement_must_be_infinite(self):
        with pytest.raises(ValueError):
            RemovalInstance(EPS.from_finite([0, 1]), (0,), "bad")

    def test_json_roundtrip(self):
        inst = cubic_family_instance(2, 3)
        again = RemovalInstance.from_json(json.dumps(inst.to_json()))
        assert again.a == inst.a and again.x == inst.x
        assert again.label == inst.label

    def test_x_is_canonical(self):
        a = cubic_family_instance(1, 2).a
        messy = RemovalInstance(a, (2, 0, 2), "l")
        assert messy == RemovalInstance(a, (0, 2), "l")
        assert messy.x == (0, 2) and messy.to_json()["X"] == [0, 2]
        listed = RemovalInstance(a, [2, 0], "l")
        assert hash(listed) == hash(messy) and listed == messy
        assert verify_instance(messy).to_json() == \
            verify_instance(cubic_family_instance(1, 2)).to_json() | {
                "label": "l"}
