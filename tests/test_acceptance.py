"""Acceptance suite: twelve checks, one verdict line each.

Each test runs inside a criterion timer that fails the test when it
misses the stated wall-time budget and registers a PASS/FAIL line that
the terminal summary replays, so a green run certifies both the
numbers and the speed.
"""

import math

import numpy as np

from bohrlab.cli import main as cli_main
from bohrlab.hypotheses import check_relaxed_hypotheses, orthogonality_check
from bohrlab.linalg import operator_norm, trace_norm
from bohrlab.scalar import classical_verify, crossing_radius, moebius_series, scalar_bohr_sum
from bohrlab.search import SearchConfig, materialize, search
from bohrlab.series import BohrInstance, alpha_series, check_inequality, critical_radius
from bohrlab.witnesses import calculus_claim_oracle, embed, general_witness, remark_two_witness, sine_witness

SQRT2 = math.sqrt(2.0)
ONE_THIRD = 1.0 / 3.0


def instance_radius(inst):
    return critical_radius(alpha_series(inst), float(np.trace(inst.S).real))


def random_theorem_instance(rng, n):
    L = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    M = M / max(1.0, np.linalg.norm(M, 2))
    return materialize(n, L @ L.conj().T, M)


def test_criterion_01_staircase_radii(criterion):
    with criterion(1, "staircase family radii match n/(3n-2), n=2..20", 1.0):
        for n in range(2, 21):
            r = instance_radius(general_witness(n))
            assert abs(r - n / (3.0 * n - 2.0)) <= 1e-9


def test_criterion_02_order_three_sharpness(criterion):
    with criterion(2, "order-3 witness radius sqrt(2)-1, violated just above", 1.0):
        inst = sine_witness(3)
        assert abs(instance_radius(inst) - (SQRT2 - 1.0)) <= 1e-9
        assert not check_inequality(inst, SQRT2 - 1.0 + 1e-6).holds


def test_criterion_03_random_instances_hold_at_one_third(criterion):
    with criterion(3, "1000 random instances hold at r=1/3", 30.0):
        rng = np.random.default_rng(2025)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            inst = random_theorem_instance(rng, n)
            assert check_inequality(inst, ONE_THIRD).slack >= -1e-9


def test_criterion_04_relaxed_instances_and_targeted_violations(criterion):
    with criterion(4, "relaxed instances hold at 1/3; targeted violations fire", 30.0):
        rng = np.random.default_rng(404)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            base = random_theorem_instance(rng, n)
            relaxed = BohrInstance(base.A, base.S, base.seq, "relaxed")
            assert check_inequality(relaxed, ONE_THIRD).holds
        for _ in range(200):
            r_t = float(rng.uniform(ONE_THIRD + 1e-6, 0.9))
            assert check_inequality(remark_two_witness(r_t), ONE_THIRD).holds
        for r_t in rng.uniform(ONE_THIRD + 1e-6, 0.9, size=50):
            inst = remark_two_witness(float(r_t))
            assert check_relaxed_hypotheses(inst).overall
            assert not check_inequality(inst, float(r_t)).holds


def test_criterion_05_search_order_two(criterion):
    with criterion(5, "order-2 search recovers 1/2 with per-eval floor", 60.0):
        floor = [np.inf]

        def watch(value):
            floor[0] = min(floor[0], value)

        est = search(SearchConfig(n=2, restarts=32, seed=7), eval_hook=watch)
        assert 0.5 - 1e-6 <= est.r_star <= 0.5 + 1e-3
        assert floor[0] >= 0.5 - 1e-9


def test_criterion_06_search_order_three(criterion):
    with criterion(6, "order-3 search recovers sqrt(2)-1", 120.0):
        est = search(SearchConfig(n=3, restarts=64, seed=7))
        assert SQRT2 - 1.0 - 1e-6 <= est.r_star <= SQRT2 - 1.0 + 5e-3


def test_criterion_07_search_order_eight(criterion):
    with criterion(7, "order-8 search lands in [1/3, 8/22+5e-3]", 180.0):
        est = search(SearchConfig(n=8, restarts=64, seed=7, max_iters=30000))
        assert est.r_star <= 8.0 / 22.0 + 5e-3
        assert est.r_star >= ONE_THIRD - 1e-9


def test_criterion_08_calculus_grid_minimum(criterion):
    with criterion(8, "grid minimum of the order-3 ratio stays >= sqrt(2)", 30.0):
        assert calculus_claim_oracle(200) >= SQRT2 - 1e-6


def test_criterion_09_trace_pairing_vanishes(criterion):
    with criterion(9, "upper vs strictly-upper trace pairing vanishes", 5.0):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            x = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            a = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
            scale = max(1.0, float(np.linalg.norm(x)) * float(np.linalg.norm(a)))
            assert abs(np.trace(x @ a)) <= 1e-10 * scale
            assert orthogonality_check(x, a)


def test_criterion_10_hoelder_bound(criterion):
    with criterion(10, "trace pairing bounded by trace norm times operator norm", 10.0):
        rng = np.random.default_rng(1010)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            bound = trace_norm(a) * operator_norm(b)
            assert abs(np.trace(a @ b)) <= bound + 1e-10 * max(1.0, bound)


def test_criterion_11_scalar_module(criterion):
    with criterion(11, "scalar series: sums, verdicts, crossing radii", 5.0):
        s = moebius_series(0.9)
        hold = classical_verify(s, ONE_THIRD)
        assert abs(hold.lhs - 0.990476) <= 1e-6
        assert hold.holds
        fail = classical_verify(s, 0.4)
        assert abs(fail.lhs - 1.01875) <= 1e-6
        assert not fail.holds
        assert abs(scalar_bohr_sum(s, 0.4) - fail.lhs) == 0.0
        previous = 1.0
        for a in (0.5, 0.7, 0.9, 0.99):
            r = crossing_radius(moebius_series(a), 1.0)
            assert abs(r - 1.0 / (1.0 + 2.0 * a)) <= 1e-9
            assert ONE_THIRD < r < previous
            previous = r


def test_criterion_12_table_and_zero_padding(criterion, capsys):
    with criterion(12, "radius table to n=1000 and zero-padding stability", 60.0):
        code = cli_main(["table", "--max-n", "1000", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,formula,bisection,abs_diff"
        assert len(lines) == 1000
        for line in lines[1:]:
            n_s, formula_s, bisection_s, _ = line.split(",")
            n = int(n_s)
            assert abs(float(bisection_s) - n / (3.0 * n - 2.0)) <= 1e-9
        last_bisection = float(lines[-1].split(",")[2])
        assert abs(last_bisection - ONE_THIRD) <= 3.4e-4

        rng = np.random.default_rng(1212)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            inst = random_theorem_instance(rng, n)
            padded = embed(inst, n + int(rng.integers(1, 5)))
            assert abs(instance_radius(padded) - instance_radius(inst)) <= 1e-12
