"""Order computations: both engines, cyclic orders, removability."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings

from addbasis import (
    EventuallyPeriodicSet,
    InternalInconsistency,
    NotABasisCertificate,
    OrderCapExceeded,
    RemovalInstance,
    cubic_family_instance,
    delta,
    order,
    quadratic_family_instance,
    verify_instance,
)
from addbasis import orders, sweeps
from conftest import naive_cyclic_order, periodic_sets

EPS = EventuallyPeriodicSet


def periodic_order(n, elems, **kwargs):
    """Order of {x : x mod n in elems}, which is the least h with every
    residue mod n a sum of exactly h elements of ``elems``."""
    return order(EPS.from_periodic(n, elems), **kwargs).order


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

    @pytest.mark.parametrize("method", ["residue", "bitset"])
    def test_cap_exceeded(self, method):
        # G = 7: a cap of G - 1 is exceeded, a cap of G is enough
        s = EPS.from_periodic(8, {1, 4})
        with pytest.raises(OrderCapExceeded):
            order(s, h_cap=6, method=method)
        assert order(s, h_cap=7, method=method).order == 7

    @pytest.mark.parametrize("method", ["residue", "bitset"])
    @pytest.mark.parametrize("h_cap", [0, -5])
    def test_cap_below_one_is_refused(self, method, h_cap):
        with pytest.raises(ValueError, match="h_cap"):
            order(EPS.naturals(), h_cap=h_cap, method=method)

    def test_stalled_growth_is_a_bug(self, monkeypatch):
        # the set generates Z/8Z, so its residue sums can stall short of
        # the group only through a fault in the kernel
        monkeypatch.setattr(orders, "_rotate_into", lambda acc, *_: acc)
        with pytest.raises(InternalInconsistency, match="stalled"):
            order(EPS.from_periodic(8, {1, 4}))

    @given(periodic_sets(allow_finite=False))
    @settings(max_examples=200, deadline=None)
    def test_proven_cap_suffices(self, s):
        # R + kD grows strictly from |R| classes, so G(A) <= n - |R| + 1
        if delta(s) == 1:
            order(s, h_cap=s.modulus - len(s.residues) + 1)

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
        assert periodic_order(8, {1, 4}) == 7
        assert periodic_order(5, {1, 2}) == 4

    def test_full_group_has_order_one(self):
        assert periodic_order(6, range(6)) == 1

    def test_trivial_group(self):
        assert periodic_order(1, {0}) == 1

    @pytest.mark.parametrize("n,elems", [(4, {2}), (2, {0}), (6, {0, 2, 4}),
                                         (4, {0, 2}), (9, {0, 3, 6})])
    def test_non_bases_are_detected(self, n, elems):
        with pytest.raises(NotABasisCertificate):
            periodic_order(n, elems)

    def test_singleton_generator(self):
        # the exact h-fold of {1} is the single class {h mod n}, so it
        # never covers for n > 1 despite generating the group
        with pytest.raises(NotABasisCertificate):
            periodic_order(3, {1})

    def test_cap_below_the_order(self):
        with pytest.raises(OrderCapExceeded):
            periodic_order(8, {1, 4}, h_cap=3)

    def test_brute_force_small_groups(self):
        from itertools import combinations
        for n in range(1, 8):
            for size in range(1, n + 1):
                for elems in combinations(range(n), size):
                    expect = naive_cyclic_order(n, elems)
                    if expect is None:
                        with pytest.raises(NotABasisCertificate):
                            periodic_order(n, elems)
                    else:
                        assert periodic_order(n, elems) == expect


class TestCyclicConsistency:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_pure_periodic_order_equals_cyclic_order(self, n):
        from math import gcd
        for a in range(n):
            for b in range(a + 1, n):
                s = EPS.from_periodic(n, {a, b})
                if gcd(b - a, n) == 1:
                    assert order(s).order == naive_cyclic_order(n, {a, b})
                else:
                    assert naive_cyclic_order(n, {a, b}) is None
                    with pytest.raises(NotABasisCertificate):
                        order(s)


class TestRemovable:
    """X is removable when A \\ X is still a basis: the engine finds its
    order, or certifies that it has none."""

    def test_cubic_removal_is_allowed(self):
        assert order(cubic_family_instance(1, 2).rest).order == 7

    def test_removal_that_breaks_the_gcd(self):
        a = EPS.from_periodic(2, {0}).adjoin([1])
        with pytest.raises(NotABasisCertificate, match="divisible by 2"):
            order(a.remove_finite((1,)))
        with pytest.raises(NotABasisCertificate):
            verify_instance(RemovalInstance(a, (1,), "N minus 1 mod 2"))

    def test_quadratic_removal_is_allowed(self):
        assert order(quadratic_family_instance(2, 2).rest).order == 4


class TestKlopschLevSmall:
    def test_exhaustive_up_to_ten(self):
        """Both cyclic-basis inequalities, checked against plain sets."""
        from itertools import combinations

        from addbasis import klopsch_lev_rhs
        for n in range(3, 11):
            for size in range(1, n + 1):
                for elems in combinations(range(n), size):
                    rho = naive_cyclic_order(n, elems)
                    if rho is None:
                        continue
                    assert size * rho < 2 * n
                    if rho >= 2:
                        assert size <= klopsch_lev_rhs(n, rho)


def _two_residue_sets(n):
    """One set per C ⊇ R = {a, b} in Z/nZ with b - a a unit: the tail
    {x >= n : x mod n in R} and the classes of C outside R below n."""
    for a in range(n):
        for b in range(a + 1, n):
            if gcd(b - a, n) != 1:
                continue
            others = [c for c in range(n) if c not in (a, b)]
            for size in range(len(others) + 1):
                for extra in combinations(others, size):
                    yield EPS.from_parts(extra, n, n, (a, b))


class TestAffineMemo:
    def test_equal_keys_give_equal_orders(self):
        orders_by_key = {}
        sets = 0
        for n in range(2, 10):
            for s in _two_residue_sets(n):
                key = orders._affine_key(s)
                if n == 2:  # {0, 1} mod 2 is N: one tail residue, no key
                    assert key is None
                    continue
                orders_by_key.setdefault(key, set()).add(order(s).order)
                sets += 1
        assert all(len(found) == 1 for found in orders_by_key.values())
        assert len(orders_by_key) < sets  # the keys do merge sets

    def test_key_is_kept_by_affine_maps(self):
        # the key is a class of (n, R, C) under x ↦ ux + t, so the memo
        # hits across a whole orbit
        for n in range(3, 8):
            units = [u for u in range(1, n) if gcd(u, n) == 1]
            for s in _two_residue_sets(n):
                c = {f % n for f in s.finite_part} | s.residues
                for u in units:
                    for t in range(n):
                        image = EPS.from_parts(
                            [(u * x + t) % n for x in c], n, n,
                            [(u * r + t) % n for r in s.residues])
                        assert orders._affine_key(image) == \
                            orders._affine_key(s)

    def test_key_of_the_class_mask_is_the_set_key(self):
        # the key reads C from the folded class mask; on every core and
        # instance of the n <= 12 two-residue sweep it is the key built
        # from the decoded finite part and residues
        def set_key(a):
            if len(a.residues) != 2:
                return None
            n = a.modulus
            r1, r2 = sorted(a.residues)
            if gcd(r2 - r1, n) != 1:
                return None
            v = pow(r2 - r1, -1, n)
            m1 = m2 = 0
            for c in {r1, r2, *(f % n for f in a.finite_part)}:
                m1 |= 1 << (c - r1) * v % n
                m2 |= 1 << (r2 - c) * v % n
            return n, min(m1, m2)

        sets = 0
        for n in range(2, 13):
            cores = {}
            for params in sweeps._two_residue_params(n):
                inst, _ = sweeps._build_instance("two_residue", params, cores)
                for s in (inst.a, inst.rest):
                    assert orders._affine_key(s) == set_key(s)
                    sets += 1
            for core in cores.values():
                assert orders._affine_key(core) == set_key(core)
        assert sets == 10718

    def test_sets_without_a_unit_pair_have_no_key(self):
        assert orders._affine_key(EPS.from_periodic(5, {0, 1, 2})) is None
        assert orders._affine_key(EPS.from_periodic(9, {0, 3})) is None
        assert orders._affine_key(EPS.from_finite([1, 2])) is None

    def test_hit_keeps_its_own_witness(self, monkeypatch):
        # {1, 4} mod 8 from 0 and {3, 6} mod 8 from 4 share a key; the hit
        # answers with the witness the engine gives the second set
        first = EPS.from_periodic(8, {1, 4})
        second = EPS.from_periodic(8, {3, 6}, threshold=5)
        assert second.threshold == 4
        assert orders._affine_key(first) == orders._affine_key(second)
        calls, real_order = [], orders.order

        def counting_order(*args):
            calls.append(args)
            return real_order(*args)

        monkeypatch.setattr(orders, "order", counting_order)
        memo = {}
        assert orders._memo_order(first, 64, memo) == real_order(first)
        for engine_calls in (2, 2):  # the first hit is recomputed
            assert orders._memo_order(second, 64, memo) == \
                real_order(second) != real_order(first)
            assert len(calls) == engine_calls
        with pytest.raises(OrderCapExceeded):
            orders._memo_order(second, 6, memo)  # G = 7
