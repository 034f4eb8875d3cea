"""Tests of the benchmark itself: hand-checkable oracle cases and a smoke
run of every workload with every check on.

    python3 -m unittest discover -s perfbench -t perfbench
"""

import sys
import unittest
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles as ref  # noqa: E402


def cubic_spec(d, k):
    n, x = d * k ** 3, tuple(i * k for i in range(d + 1))
    top = max(x) + 1
    core = [y for y in range(top) if y % n in (1, d * k * k)]
    return (tuple(sorted(set(core) | set(x))), top, n, (1, d * k * k)), x


def quadratic_spec(h, mu):
    n = h * (h - 1) * mu + 1
    core = [y for y in range(2) if y % n in (mu, h * mu)]
    return (tuple(sorted(set(core) | {0, 1})), 2, n, (mu, h * mu)), (0, 1)


class PinnedCases(unittest.TestCase):
    def test_cubic_1_2_has_order_3(self):
        spec, _ = cubic_spec(1, 2)  # {0, 2} ∪ {x mod 8 in {1, 4}}
        self.assertEqual(ref.order(spec, 10), 3)
        self.assertTrue(ref.order_holds(spec, 3))
        self.assertFalse(ref.order_holds(spec, 4))
        # 1 + 2 + 4 = 7 hits the class 7 mod 8, which two summands miss
        self.assertTrue({1, 2, 4} <= set(ref.members(spec, 8)))
        two = {a + b for a in ref.members(spec, 40) for b in ref.members(spec, 40)}
        self.assertFalse(any(v % 8 == 7 for v in two))

    def test_quadratic_2_3_has_order_3(self):
        spec, x = quadratic_spec(2, 3)
        self.assertEqual(ref.order(spec, 10), 3)
        self.assertEqual(ref.order(ref.remove(spec, x), 20), 2 * 1 * 3)

    def test_construction_orders_after_removal(self):
        for d, k in ((1, 2), (2, 2), (1, 3)):
            spec, x = cubic_spec(d, k)
            self.assertTrue(ref.order_holds(ref.remove(spec, x), d * k ** 3 - 1))

    def test_mu_of_the_wide_gap_set(self):
        spec = ((0, 1, 6), 9, 1, (0,))  # {0, 1, 6} ∪ [9, ∞)
        self.assertEqual(ref.mu(spec, (6,)), 3)

    def test_mu_inside_the_span(self):
        spec = ((), 0, 1, (0,))
        self.assertEqual(ref.mu(spec, (2, 5)), 3)

    def test_eta(self):
        # A \ X = {0, 1} ∪ [9, ∞) with diam X = 0: least gap 1
        self.assertEqual(ref.eta(((0, 1, 6), 9, 1, (0,)), (6,)), 1)
        # evens from 0 plus 1: gaps >= 4 between elements of A \ {0, 4}
        self.assertEqual(ref.eta(((1,), 2, 2, (0,)), (0, 4)), 4)

    def test_bases_of_z20_containing_zero(self):
        self.assertEqual(ref.cyclic_bases_with_zero(20), 523_770)

    def test_mobius_count_matches_enumeration(self):
        for n in range(1, 11):
            count = sum(1 for size in range(n)
                        for rest in combinations(range(1, n), size)
                        if gcd(n, *rest) == 1)
            self.assertEqual(ref.cyclic_bases_with_zero(n), count, n)

    def test_bound_formulas(self):
        self.assertEqual(ref.rhs_d(2, Fraction(1)), 5 + 2)
        self.assertEqual(ref.rhs_eta(3, 2), 2 * 8 + 4)
        self.assertEqual(ref.rhs_mu(2, 3), 6 * 9 // 2)
        self.assertEqual(ref.rhs_mu_improved(2, 3), 8 * 13)
        self.assertEqual(ref.rhs_density(Fraction(2, 7)), 14)
        self.assertEqual(ref.rhs_single_upper(4), 10 + 1)


class MuWindowFault(unittest.TestCase):
    def test_fixed_fault_inputs_are_faults(self):
        import workloads

        for spec, x in workloads.MU_WINDOW_FAULTS:
            self.assertTrue(workloads.mu_window_fault(spec, x))
            self.assertEqual(ref.gcd_of_differences(ref.remove(spec, x)), 1)


class Smoke(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        import json

        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(layers, list(run.LAYER_METRICS))
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}

        for name in ("two_residue_sweep", "cyclic_bases",
                     "bitset_crosscheck", "point_queries"):
            for trace in (False, True):
                result, info = run.run(name, seed=3, seconds=0, trace=trace,
                                       size="smoke")
                self.assertTrue(result["correct"], info["error"])
                self.assertGreater(result["attempted"], 0)
                expected_failed = 3 * info["rounds"] if name == "point_queries" else 0
                self.assertEqual(result["failed"], expected_failed)
                want = dict(layers) if trace else e2e
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
