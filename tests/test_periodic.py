"""Set algebra: canonical forms, sumsets, saturation, densities."""

import json
import pytest
import tracemalloc
from fractions import Fraction
from math import lcm
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addbasis import (EmptyOperand, EventuallyPeriodicSet, NotASubset,
                      cubic_family_instance, order)
from addbasis.periodic import _bits, _min_period, as_finite_set
from conftest import (naive_h_fold_prefix, naive_sumset_prefix, periodic_sets,
                      prefix_sumset)

EPS = EventuallyPeriodicSet


@st.composite
def valid_parts(draw, max_modulus=12, max_threshold=30):
    """Structurally valid, usually non-canonical fields: a residue set
    lifted to a multiple of its period, and a finite part that may copy
    the tail below the threshold."""
    n = draw(st.integers(1, max_modulus))
    k = draw(st.integers(1, 3))
    base = draw(st.sets(st.integers(0, n - 1), max_size=n))
    residues = frozenset(r + i * n for r in base for i in range(k))
    t = draw(st.integers(0, max_threshold))
    finite = draw(st.sets(st.integers(0, t - 1), max_size=8)) if t else set()
    if draw(st.booleans()):
        finite |= {y for y in range(t) if y % n in base}
    return tuple(sorted(finite)), t, n * k, residues


@st.composite
def equal_or_independent_pairs(draw):
    """A canonical set with either an independent one or another
    description of the same set (longer period, higher threshold)."""
    a = draw(periodic_sets(max_modulus=10, max_threshold=20, allow_empty=True))
    if draw(st.booleans()):
        return a, draw(periodic_sets(max_modulus=10, max_threshold=20,
                                     allow_empty=True))
    k = draw(st.integers(1, 3))
    t = a.threshold + draw(st.integers(0, 10))
    residues = frozenset(r + i * a.modulus for r in a.residues for i in range(k))
    return a, EPS(tuple(a.prefix(t - 1)), t, a.modulus * k, residues)


class TestNormalize:
    def test_redundant_period_collapses(self):
        s = EPS((), 0, 4, frozenset({0, 2})).normalize()
        assert (s.modulus, s.residues) == (2, frozenset({0}))
        assert s.threshold == 0 and s.finite_part == ()

    def test_prefix_element_absorbed_into_tail(self):
        s = EPS((3,), 4, 1, frozenset({0})).normalize()
        assert s == EPS((), 3, 1, frozenset({0}))

    def test_empty_tail_canonicalizes_to_empty(self):
        s = EPS((), 5, 3, frozenset()).normalize()
        assert s == EPS((), 0, 1, frozenset())
        assert s.is_empty

    def test_threshold_lowered_to_least_consistent(self):
        # evens minus {0}: the tail description is already true from x = 1
        s = EPS.from_periodic(2, {0}).remove_finite([0])
        assert s == EPS((), 1, 2, frozenset({0}))

    @given(periodic_sets(allow_empty=True))
    def test_idempotent(self, s):
        assert s.normalize() == s.normalize().normalize()

    @given(periodic_sets(allow_empty=True), st.integers(0, 200))
    def test_membership_preserved(self, s, x):
        assert (x in s) == (x in s.normalize())

    def test_structural_validation(self):
        for fields, message in [
            (((5,), 3, 2, frozenset()), "finite part elements must lie in"),
            (((), 0, 0, frozenset()), "modulus must be positive"),
            (((), 0, 4, frozenset({4})), "residues must lie in"),
            (((2, 1), 5, 1, frozenset()), "strictly increasing"),
            (((1, 1), 5, 1, frozenset()), "strictly increasing"),
            # a scan up from -1 meets a negative element as a fall
            (((-1, 2), 5, 1, frozenset()), "strictly increasing"),
            (((), -1, 1, frozenset()), "threshold must be non-negative"),
            (((), 0, 4, frozenset({-1})), "residues must lie in"),
            # with two faults, the one the scan meets first
            (((1, 5, 3), 4, 1, frozenset()), "finite part elements must lie"),
            (((1, 3, 3, 9), 4, 1, frozenset()), "strictly increasing"),
        ]:
            with pytest.raises(ValueError, match=message):
                EPS(*fields)
            finite, t, n, residues = fields
            if list(finite) == sorted(set(finite)):  # from_parts sorts
                obj = {"finite": list(finite), "threshold": t, "modulus": n,
                       "residues": sorted(residues)}
                with pytest.raises(ValueError, match=message):
                    EPS.from_parts(finite, t, n, residues)
                with pytest.raises(ValueError, match=message):
                    EPS.from_json(json.dumps(obj))

    @given(st.lists(st.integers(-3, 12), max_size=6), st.integers(0, 10))
    def test_finite_check_names_the_first_fault(self, finite, t):
        # the element-by-element scan the C-speed check stands for
        expected, prev = None, -1
        for x in finite:
            if x <= prev:
                expected = "finite part must be strictly increasing"
                break
            if x >= t:
                expected = "finite part elements must lie in [0, threshold)"
                break
            prev = x
        try:
            EPS(tuple(finite), t, 1, frozenset())
            got = None
        except ValueError as e:
            got = str(e)
        assert got == expected

    @given(valid_parts())
    def test_construction_is_canonical(self, parts):
        s = EPS(*parts)
        assert s == EPS.from_parts(*parts)
        assert s.normalize() is s

    @given(equal_or_independent_pairs())
    def test_equality_is_membership_on_a_window(self, pair):
        a, b = pair
        # both tails repeat with period lcm(n1, n2) from max(T1, T2) on
        bound = a.threshold + b.threshold + 2 * lcm(a.modulus, b.modulus)
        assert (a == b) == all((x in a) == (x in b) for x in range(bound))


class TestContains:
    def test_tail_membership(self):
        s = EPS.from_periodic(8, {1, 4})
        assert 12 in s
        assert 2 not in s

    def test_finite_part_membership(self):
        s = EPS.from_parts([0, 2], 3, 8, {1, 4})
        assert 2 in s and 0 in s and 3 not in s

    def test_negative_is_never_a_member(self):
        assert -1 not in EPS.naturals()


@st.composite
def dense_or_sparse_sets(draw, max_modulus=30, max_threshold=200):
    """A set whose finite part and residues are dense (each x below T and
    each residue kept with one drawn probability in [0.2, 0.9]) or sparse
    (a few elements)."""
    n = draw(st.integers(1, max_modulus))
    t = draw(st.integers(0, max_threshold))
    if draw(st.booleans()):
        rnd, odds = draw(st.randoms()), draw(st.floats(0.2, 0.9))
        finite = [x for x in range(t) if rnd.random() < odds]
        residues = [r for r in range(n) if rnd.random() < odds]
    else:
        finite = draw(st.sets(st.integers(0, t - 1), max_size=4)) if t else ()
        residues = draw(st.sets(st.integers(0, n - 1), max_size=3))
    s = EPS.from_parts(finite, t, n, residues)
    return EPS.from_periodic(n, {n - 1}) if s.is_empty else s


def stored(s):
    """The four ints a set is stored as, and its hash."""
    return s._fmask, s.threshold, s.modulus, s._rmask, hash(s)


class TestSumset:
    def test_evens_plus_evens(self):
        evens = EPS.from_periodic(2, {0})
        assert evens + evens == evens

    def test_zero_is_identity(self):
        zero = EPS.from_finite([0])
        for s in (EPS.from_periodic(8, {1, 4}),
                  EPS.from_parts([0, 2], 3, 8, {1, 4}),
                  EPS.from_finite([3, 17])):
            assert zero + s == s

    def test_against_pairwise_oracle_prefix(self):
        s = EPS.from_parts([0, 2], 3, 8, {1, 4})
        total = s + s
        assert total.prefix(64) == naive_sumset_prefix(s, s, 64)

    def test_empty_operand_rejected(self):
        with pytest.raises(EmptyOperand):
            EPS.from_parts() + EPS.naturals()
        with pytest.raises(EmptyOperand):
            EPS.naturals() + EPS.from_parts()

    def test_finite_plus_finite(self):
        a = EPS.from_finite([1, 5])
        b = EPS.from_finite([0, 10])
        assert (a + b) == EPS.from_finite([1, 5, 11, 15])

    @settings(deadline=None)
    @given(periodic_sets())
    # a finite element at T - 1 in a class the tail misses
    @example(EPS.from_parts([4], 5, 3, {0}))
    @example(EPS.from_finite([0, 3, 7]))
    @example(EPS.from_parts([0, 2], 5, 1, {0}))  # cofinite
    def test_prefix_mask_round_trip(self, s):
        # the kernel's encode and decode, from any tail start at or above
        # the threshold and with the period or a multiple of it
        for period in (s.modulus, 2 * s.modulus):
            for tail_start in range(s.threshold, s.threshold + 2 * period + 1):
                mask = s._prefix_mask(tail_start + 4 * period)
                got = EPS._from_prefix_mask(mask, tail_start, period)
                assert (got.finite_part, got.threshold, got.modulus,
                        got.residues) == (s.finite_part, s.threshold,
                                          s.modulus, s.residues)

    @settings(max_examples=80, deadline=None)
    @given(periodic_sets(max_modulus=12, max_threshold=20),
           periodic_sets(max_modulus=12, max_threshold=20))
    # minimal period 2, a proper divisor of lcm 12: evens but 2
    @example(EPS.from_periodic(4, {0}), EPS.from_periodic(6, {0}))
    @example(EPS.from_periodic(2, {0}), EPS.from_periodic(3, {0}))  # cofinite
    @example(EPS.from_finite([1, 5]), EPS.from_finite([0, 10]))  # finite
    def test_rebuild_matches_the_constructor(self, s1, s2):
        # the sumset rebuilds its result from masks alone: the public
        # constructor must find the same fields, and the masks the result
        # keeps must be those of its own elements
        c = s1 + s2
        fields = (c.finite_part, c.threshold, c.modulus, c.residues)
        d = EPS(*fields)
        assert (d.finite_part, d.threshold, d.modulus, d.residues) == fields
        t, n = c.threshold, c.modulus
        kept = vars(c)
        assert kept["_fmask"] == sum(1 << x for x in c.prefix(t - 1))
        assert kept["_rmask"] == sum({1 << x % n for x in c.prefix(t + n - 1)
                                      if x >= t})
        assert vars(d)["_rmask"] == kept["_rmask"]

    @settings(max_examples=150, deadline=None)
    @given(dense_or_sparse_sets(), dense_or_sparse_sets())
    # the combed operand (fewer pieces) is finite
    @example(EPS.from_parts([0, 2], 3, 8, {1, 4}), EPS.from_finite([1, 5]))
    @example(EPS.from_finite([1, 5]), EPS.from_finite([0, 10]))  # both finite
    # two pieces each; then lcm 12, above both moduli
    @example(EPS.from_periodic(5, {2, 4}), EPS.from_parts([1], 2, 3, {0}))
    @example(EPS.from_periodic(4, {1}), EPS.from_parts([0], 1, 6, {1, 3}))
    # bound = 8 + 0 + 4·2 = 2^3·2 and t_r = 0 for the evens, 0 in a:
    # bit 16 is 0 + 16 alone (odd + even is odd), the last doubling's sum
    @example(EPS.from_parts([0], 8, 2, {1}), EPS.from_periodic(2, {0}))
    def test_comb_matches_the_prefix_kernel(self, s1, s2):
        # the comb and the per-element kernel store the same four ints,
        # whichever operand is combed
        for a, b in ((s1, s2), (s2, s1)):
            assert stored(a + b) == stored(prefix_sumset(a, b))

    @settings(max_examples=30, deadline=None)
    @given(dense_or_sparse_sets(max_modulus=12, max_threshold=40),
           st.integers(2, 6))
    @example(EPS.from_parts([0, 2], 3, 8, {1, 4}), 7)
    def test_h_fold_matches_the_prefix_kernel(self, s, h):
        # doubling with the comb against h - 1 per-element sums
        want = s
        for _ in range(h - 1):
            want = prefix_sumset(want, s)
        assert stored(s.h_fold(h)) == stored(want)

    def test_folds_stay_masks_until_read(self, monkeypatch):
        # a sumset result, and each fold of the bitset engine, is stored as
        # its four ints: neither view is decoded until something reads it
        folds, real = [], EPS.sumset

        def keeping(self, other):
            folds.append(real(self, other))
            return folds[-1]

        c = EPS.from_parts([0, 2], 3, 8, {1, 4}) + EPS.from_periodic(6, {1, 2})
        monkeypatch.setattr(EPS, "sumset", keeping)
        rest = cubic_family_instance(3, 4).rest
        assert order(rest, method="bitset").order == 191
        assert len(folds) == 190
        for fold in [c, *folds]:
            assert not {"finite_part", "residues"} & set(vars(fold))
            fields = (fold.finite_part, fold.threshold, fold.modulus,
                      fold.residues)
            # decoded once: a second read finds the view under its name
            assert vars(fold)["finite_part"] is fold.finite_part is fields[0]
            d = EPS(*fields)
            assert (d.finite_part, d.threshold, d.modulus, d.residues) == fields

    @settings(max_examples=150, deadline=None)
    @given(periodic_sets(max_modulus=4, max_threshold=6, allow_empty=True),
           periodic_sets(max_modulus=4, max_threshold=6, allow_empty=True))
    # the evens, built two ways; a cofinite set and its finite part
    @example(EPS.from_periodic(4, {0, 2}), EPS.from_parts([0], 1, 2, {0}))
    @example(EPS.from_parts([0, 2], 3, 1, {0}), EPS.from_finite([0, 2]))
    def test_four_ints_are_set_equality(self, s1, s2):
        # equality and hashing read the four ints; canonical form makes
        # that agreement up to both thresholds plus four common periods
        bound = (max(s1.threshold, s2.threshold)
                 + 4 * lcm(s1.modulus, s2.modulus))
        assert (s1 == s2) == (s1.prefix(bound) == s2.prefix(bound))
        if s1 == s2:
            assert hash(s1) == hash(s2)
        if not s1.is_empty:  # the least element, from the masks alone
            assert s1.min_element() == s1.prefix(bound)[0]
        # a set rebuilt from masks reads as the constructor's set does
        built = [s1.adjoin([3])]
        if not (s1.is_empty or s2.is_empty):
            built.append(s1 + s2)
        for m in built:
            top = m.threshold + 4 * m.modulus
            reads = (hash(m), [x in m for x in range(-1, top)],
                     m.min_element())
            d = EPS(m.finite_part, m.threshold, m.modulus, m.residues)
            assert m == d
            assert reads == (hash(d), [x in d for x in range(-1, top)],
                             d.min_element())
            assert (m.to_json(), repr(m)) == (d.to_json(), repr(d))

    @given(periodic_sets(max_modulus=5, max_threshold=300))
    def test_class_mask_folds_the_finite_part(self, s):
        # C = (F ∪ R) mod n, folded from a finite part many periods wide
        n = s.modulus
        assert s._class_mask() == sum(
            {1 << x % n for x in (*s.finite_part, *s.residues)})

    @given(st.sets(st.integers(0, 300)), st.booleans())
    @example(set(range(3, 300, 38)), False)  # 8 set bits: peeled
    @example(set(range(3, 300, 33)), False)  # 9: read by the digit pass
    def test_bits_lists_the_set_bits(self, positions, dense):
        mask = sum(1 << i for i in positions)
        if dense:  # the complement: a digit pass over a mostly-set mask
            mask ^= (1 << 301) - 1
        assert _bits(mask) == [i for i in range(mask.bit_length())
                               if mask >> i & 1]

    @given(st.integers(1, 36).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(0, n - 1)))))
    @example((720, {1, 5, 361, 365}))  # 30 divisors; minimal period 360
    @example((720, set(range(3, 720, 48)) | set(range(7, 720, 80))))
    @example((2 * 3 * 5 * 7 * 11, {0}))
    @example((97, {3}))
    def test_min_period_is_the_least_period(self, case):
        n, residues = case
        m = _min_period(sum(1 << r for r in residues), n)
        assert m == min(p for p in range(1, n + 1) if n % p == 0 and all(
            (r + p) % n in residues for r in residues))

    def test_min_period_of_a_modulus_with_many_divisors(self):
        # n = 2·3·5·…·23 has 512 divisors: the search must neither try
        # them all nor build an n-bit int for a set of two small residues
        n = 223092870
        tracemalloc.start()
        s = EPS.from_periodic(n, {1, 5})
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (s.modulus, s.residues) == (n, {1, 5}) and peak < 1 << 16
        h = n // 2  # no smaller period: 4 and h + 4 do not divide n
        s = EPS.from_periodic(n, {1, 5, h + 1, h + 5})
        assert (s.modulus, s.residues, vars(s)["_rmask"]) == (h, {1, 5}, 34)

    @settings(max_examples=60, deadline=None)
    @given(periodic_sets(max_modulus=12, max_threshold=20),
           periodic_sets(max_modulus=12, max_threshold=20))
    def test_commutative(self, s1, s2):
        assert s1 + s2 == s2 + s1

    @settings(max_examples=30, deadline=None)
    @given(periodic_sets(max_modulus=6, max_threshold=10),
           periodic_sets(max_modulus=6, max_threshold=10),
           periodic_sets(max_modulus=6, max_threshold=10))
    def test_associative(self, s1, s2, s3):
        assert (s1 + s2) + s3 == s1 + (s2 + s3)

    @settings(max_examples=60, deadline=None)
    @given(periodic_sets(max_modulus=14, max_threshold=24),
           periodic_sets(max_modulus=14, max_threshold=24))
    def test_oracle_equivalence_on_safe_window(self, s1, s2):
        a, b = s1.normalize(), s2.normalize()
        from math import lcm
        period = lcm(a.modulus, b.modulus)
        bound = a.threshold + b.threshold + 4 * period
        window = bound - max(a.threshold, b.threshold) - period
        assert (a + b).prefix(window) == naive_sumset_prefix(a, b, window)


class TestHFold:
    def test_one_fold_is_identity(self):
        s = EPS.from_parts([0, 2], 3, 8, {1, 4})
        assert s.h_fold(1) == s

    def test_four_fold_of_two_fifths_residues_covers(self):
        s = EPS.from_periodic(5, {2, 4})
        assert not s.h_fold(3).is_cofinite()
        assert s.h_fold(4).is_cofinite()

    def test_seven_fold_of_eighth_residues_covers(self):
        s = EPS.from_periodic(8, {1, 4})
        assert not s.h_fold(6).is_cofinite()
        assert s.h_fold(7).is_cofinite()

    @pytest.mark.parametrize("h", range(2, 9))
    def test_doubling_matches_iteration(self, h):
        s = EPS.from_parts([0, 2], 3, 8, {1, 4})
        assert s.h_fold(h) == s.h_fold(h - 1) + s

    @settings(max_examples=25, deadline=None)
    @given(periodic_sets(max_modulus=8, max_threshold=12),
           st.integers(2, 5))
    def test_doubling_matches_iteration_random(self, s, h):
        assert s.h_fold(h) == s.h_fold(h - 1) + s

    @settings(max_examples=20, deadline=None)
    @given(periodic_sets(max_modulus=8, max_threshold=10), st.integers(2, 4))
    def test_against_pairwise_oracle(self, s, h):
        c = s.normalize()
        bound = h * (c.threshold + 2 * c.modulus) + 4 * c.modulus
        assert s.h_fold(h).prefix(bound) == naive_h_fold_prefix(s, h, bound)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            EPS.naturals().h_fold(0)

    @given(periodic_sets(max_modulus=8, max_threshold=10), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_density_monotone_when_zero_present(self, s, h):
        s = s.adjoin([0])
        assert s.h_fold(h + 1).lower_density() >= s.h_fold(h).lower_density()


class TestCofinite:
    def test_naturals(self):
        assert EPS.naturals().is_cofinite()

    def test_evens_are_not(self):
        assert not EPS.from_periodic(2, {0}).is_cofinite()

    def test_missing_a_prefix_is_still_cofinite(self):
        assert EPS.from_parts((), 100, 1, {0}).is_cofinite()


class TestEqualUpToFinite:
    def test_adding_one_element(self):
        s = EPS.from_periodic(8, {1, 4})
        assert s.equal_up_to_finite(s.adjoin([2]))

    def test_evens_vs_odds(self):
        assert not EPS.from_periodic(2, {0}).equal_up_to_finite(
            EPS.from_periodic(2, {1}))

    def test_differing_prefixes(self):
        a = EPS.from_periodic(4, {0, 1, 2})
        b = EPS.from_parts([3], 4, 4, {0, 1, 2})
        assert a.equal_up_to_finite(b)


class TestSaturate:
    def test_singleton(self):
        assert EPS.from_finite([0]).saturate(3) == EPS.from_periodic(3, {0})

    def test_residues_project(self):
        s = EPS.from_periodic(8, {1, 4})
        assert s.saturate(4) == EPS.from_periodic(4, {0, 1})

    def test_saturation_by_one_gives_naturals(self):
        for s in (EPS.from_finite([7]), EPS.from_periodic(9, {2})):
            assert s.saturate(1) == EPS.naturals()

    @given(periodic_sets(max_modulus=12, max_threshold=20),
           st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_saturation_contains_the_set(self, s, m):
        sat = s.saturate(m)
        for x in s.prefix(s.normalize().threshold + 2 * s.normalize().modulus):
            assert x in sat


class TestKneserPeriod:
    def test_doubled_two_residue_set(self):
        a = EPS.from_periodic(4, {0, 1})
        doubled = a.h_fold(2)
        assert doubled == EPS.from_periodic(4, {0, 1, 2})
        assert doubled.kneser_period(16) == 4

    def test_cofinite_has_period_one(self):
        assert EPS.from_parts((), 10, 1, {0}).kneser_period(4) == 1

    def test_off_pattern_exception_blocks_small_caps(self):
        s = EPS.from_parts([0], 1, 2, {1})  # odds plus a stray 0
        assert s.kneser_period(2) is None

    @given(periodic_sets(max_modulus=10, max_threshold=14), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_result_is_minimal(self, s, cap):
        m = s.kneser_period(cap)
        if m is None:
            for cand in range(1, cap + 1):
                assert not s.equal_up_to_finite(s.saturate(cand))
        else:
            assert s.equal_up_to_finite(s.saturate(m))
            for cand in range(1, m):
                assert not s.equal_up_to_finite(s.saturate(cand))


class TestLowerDensity:
    def test_two_residues_mod_five(self):
        assert EPS.from_periodic(5, {2, 4}).lower_density() == Fraction(2, 5)

    def test_finite_sets_have_density_zero(self):
        assert EPS.from_finite([1, 100]).lower_density() == 0

    def test_naturals_have_density_one(self):
        assert EPS.naturals().lower_density() == 1


class TestRemoveAndAdjoin:
    def test_removing_the_adjoined_part_restores_the_core(self):
        core = EPS.from_periodic(8, {1, 4})
        a = core.adjoin([0, 2])
        assert a.remove_finite([0, 2]) == core

    def test_remove_requires_subset(self):
        with pytest.raises(NotASubset):
            EPS.from_periodic(2, {0}).remove_finite([1])

    @pytest.mark.parametrize("xs,message", [
        ([1, "a"], "must be ints, got 'a'"),
        ([None, 1], "must be ints, got None"),
        ([3, -2, -1], ">= 0, got -2"), ([], "nonempty")])
    def test_finite_set_faults_raise_value_error(self, xs, message):
        # the elements are checked before sorting, which mixed types break
        with pytest.raises(ValueError, match=message):
            as_finite_set(xs)

    def test_remove_first_even(self):
        s = EPS.from_periodic(2, {0}).remove_finite([0])
        assert s.prefix(8) == [2, 4, 6, 8]

    @given(periodic_sets(max_modulus=10, max_threshold=16),
           st.sets(st.integers(0, 30), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_adjoin_then_remove_roundtrip(self, s, xs):
        fresh = sorted(x for x in xs if x not in s)
        if not fresh:
            return
        assert s.adjoin(fresh).remove_finite(fresh) == s.normalize()

    @given(periodic_sets(max_modulus=12, max_threshold=20),
           st.sets(st.integers(0, 40), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_same_tail_results_match_a_full_rebuild(self, s, xs):
        # adjoin and remove_finite keep the tail and skip the search for
        # its minimal period; from_parts runs every step
        t = max(s.threshold, max(xs) + 1)
        assert s.adjoin(xs) == EPS.from_parts(
            set(s.prefix(t - 1)) | xs, t, s.modulus, s.residues)
        inside = [x for x in xs if x in s]
        if inside:
            t = max(s.threshold, max(inside) + 1)
            assert s.remove_finite(inside) == EPS.from_parts(
                [y for y in s.prefix(t - 1) if y not in xs], t, s.modulus,
                s.residues)


class TestPrefix:
    def test_tail_prefix(self):
        assert EPS.from_periodic(8, {1, 4}).prefix(12) == [1, 4, 9, 12]

    def test_empty_set(self):
        assert EPS.from_parts().prefix(100) == []

    def test_mixed_prefix(self):
        s = EPS.from_parts([0, 2], 3, 8, {1, 4})
        assert s.prefix(9) == [0, 2, 4, 9]


class TestJsonRoundTrip:
    @given(periodic_sets(allow_empty=True))
    def test_roundtrip(self, s):
        assert EPS.from_json(s.normalize().to_json()) == s.normalize()

    def test_loading_canonicalizes(self):
        s = EPS.from_json(
            '{"finite": [], "threshold": 0, "modulus": 4, "residues": [0, 2]}')
        assert s.modulus == 2
