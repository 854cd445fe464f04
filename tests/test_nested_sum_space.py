import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab import nested_sum_space
from banachlab.errors import DataError, DomainError, ResolutionError
from banachlab.nested_sum_space import (
    ExponentSchedule,
    identity_operator_norm,
    large_slice_check,
    nested_norm,
    product_condition,
    wur_difference_extraction,
)

GEO = ExponentSchedule.geometric(2.0, 4.0, 12)
FAST = ExponentSchedule.geometric(2.0, 32.0, 8)
#: the last exponent is the sup-norm limit: that fold step returns the max
WITH_INF = ExponentSchedule((4.0, 8.0, 16.0, 32.0, 64.0, math.inf))


def nested_norm_oracle(sched, v):
    """Independent evaluation: expand the fold as one explicit expression,
    computed front-to-back instead of back-to-front."""
    v = np.asarray(v, dtype=float)
    # front-to-back: maintain the partially applied expression symbolically
    # as a function of the tail norm
    def expr(j, tail):
        if j == v.size - 1:
            return abs(v[j]) if tail is None else tail
        p = sched.exponents[j]
        inner = expr(j + 1, tail)
        return (abs(v[j]) ** p + inner ** p) ** (1.0 / p)

    return expr(0, None)


class TestNestedNorm:
    def test_euclidean_instance(self):
        assert nested_norm(ExponentSchedule((2.0,)), [3.0, 4.0]) == 5.0

    def test_unit_vectors(self):
        for j in range(GEO.capacity):
            e = np.zeros(GEO.capacity)
            e[j] = 1.0
            assert nested_norm(GEO, e) == 1.0

    def test_mixed_exponent_value(self):
        s = ExponentSchedule((2.0, 4.0))
        got = nested_norm(s, [1.0, 1.0, 1.0])
        assert got == pytest.approx((1.0 + math.sqrt(2.0)) ** 0.5)
        assert got == pytest.approx(nested_norm_oracle(s, [1.0, 1.0, 1.0]))

    def test_against_oracle_random(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            v = rng.standard_normal(rng.integers(1, 8))
            s = ExponentSchedule((1.5, 2.0, 3.0, 5.0, 9.0, 17.0, 33.0))
            assert nested_norm(s, v) == pytest.approx(nested_norm_oracle(s, v), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            nested_norm(GEO, [])

    def test_norm_axioms_random(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            nu, nv, ns = (nested_norm(GEO, w) for w in (u, v, u + v))
            assert ns <= nu + nv + 1e-10
            c = rng.uniform(-3.0, 3.0)
            assert nested_norm(GEO, c * u) == pytest.approx(abs(c) * nu, abs=1e-10)

    def test_monotone_comparison_with_sup(self):
        rng = np.random.default_rng(42)
        prod, _ = product_condition(GEO)
        for _ in range(200):
            v = rng.standard_normal(GEO.capacity)
            sup = float(np.max(np.abs(v)))
            n = nested_norm(GEO, v)
            assert sup <= n + 1e-12
            assert n <= prod * sup + 1e-12


class TestIdentityNorm:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 8.0])
    def test_matches_vertex_oracle(self, p):
        vertices = [(1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0)]
        brute = max((abs(a) ** p + abs(b) ** p) ** (1.0 / p) for a, b in vertices)
        assert abs(identity_operator_norm(p) - brute) < 1e-12

    def test_limit(self):
        assert identity_operator_norm(1e9) == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            identity_operator_norm(0.5)


class TestProductCondition:
    def test_geometric_exact_sqrt_two(self):
        prod, holds = product_condition(GEO)
        assert prod == math.sqrt(2.0)
        assert holds

    def test_boundary_schedule_fails(self):
        sched = ExponentSchedule(tuple(2.0 ** i for i in range(1, 13)), tail_inv_sum=2.0 ** -12)
        prod, holds = product_condition(sched)
        assert prod == 2.0 and not holds

    def test_single_term(self):
        prod, holds = product_condition(ExponentSchedule((2.0,)))
        assert prod == math.sqrt(2.0) and holds


class TestWur:
    def test_identical_sequences(self):
        xs = [np.eye(GEO.capacity)[0] for _ in range(8)]
        rep = wur_difference_extraction(GEO, xs, xs, tol=1e-9)
        assert rep["passed"] and not rep["vacuous"]
        assert all(lvl["tail_residual"] == 0.0 for lvl in rep["levels"])

    def test_shrinking_multiples(self):
        xs = [np.eye(GEO.capacity)[0] for _ in range(16)]
        ys = [(1.0 - 1.0 / (k + 1)) * np.eye(GEO.capacity)[0] for k in range(16)]
        rep = wur_difference_extraction(GEO, xs, ys, tol=0.2)
        assert rep["premise_holds"] and rep["passed"]

    def test_orthogonal_units_vacuous(self):
        xs = [np.eye(GEO.capacity)[0] for _ in range(8)]
        ys = [np.eye(GEO.capacity)[1] for _ in range(8)]
        rep = wur_difference_extraction(GEO, xs, ys, tol=0.05)
        assert rep["vacuous"] and rep["passed"]
        assert rep["premise_gap"] >= 2.0 - nested_norm(
            GEO, np.eye(GEO.capacity)[0] + np.eye(GEO.capacity)[1]
        ) - 1e-12

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            wur_difference_extraction(GEO, [np.zeros(3)], [np.zeros(3)], tol=0.1)


def scalar_members(sched, m, epsilon, budget, seed):
    """The slice members in `large_slice_check`'s order: the deterministic
    pair, then the accepted random candidates."""
    dim = sched.capacity
    a = (1.0 - epsilon) * (1.0 + 1e-12) + 1e-15
    p_m = sched.exponents[m - 1] if m < dim else sched.exponents[-1]
    c = (1.0 - a ** p_m) ** (1.0 / p_m) if m < dim else 0.0
    x = np.zeros(dim)
    y = np.zeros(dim)
    x[m - 1] = a
    y[m - 1] = a
    if m < dim:
        x[-1] = c
        y[-1] = -c
    rng = np.random.default_rng(seed)
    members = [x, y]
    for _ in range(budget):
        cand = rng.standard_normal(dim)
        cand[m - 1] = abs(cand[m - 1]) + 1.0
        nrm = nested_norm(sched, cand)
        cand = cand / (nrm * (1.0 + 1e-12))
        if cand[m - 1] > 1.0 - epsilon:
            members.append(cand)
    return members


def scalar_large_slice(sched, m, epsilon, budget, seed):
    """The quadratic scalar pair loop that the whole-array screen replaced,
    kept as the reference for its results (`large_slice_check` checks the
    inputs, so this copy does not)."""
    members = scalar_members(sched, m, epsilon, budget, seed)
    best = nested_norm(sched, members[0] - members[1])
    best_pair = (members[0].copy(), members[1].copy())
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d = nested_norm(sched, members[i] - members[j])
            if d > best:
                best = d
                best_pair = (members[i].copy(), members[j].copy())
    return {
        "best_distance": float(best),
        "pair": best_pair,
        "tail_product": 2.0 ** sched.inv_sum(start=m),
        "members": len(members),
        "target": 2.0 / (1.0 + epsilon / 3.0),
    }


def assert_same_report(got, want):
    for key in ("best_distance", "members", "tail_product", "target"):
        assert got[key] == want[key], key
    for u, v in zip(got["pair"], want["pair"]):
        assert np.array_equal(u, v)


class TestPairScreen:
    """The screen nominates pairs; the exact fold ranks them in the scalar
    loop's order, so every field of the report is that loop's."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("budget", [0, 1, 50, 600])
    @pytest.mark.parametrize("m", [8, 12, 13])  # 13 = capacity: c = 0, x == y
    def test_matches_scalar_loop(self, m, budget, seed):
        got = large_slice_check(GEO, m, 0.3, budget=budget, seed=seed)
        assert_same_report(got, scalar_large_slice(GEO, m, 0.3, budget, seed))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_fast_schedule_first_coordinate(self, seed):
        got = large_slice_check(FAST, 1, 0.5, budget=200, seed=seed)
        assert_same_report(got, scalar_large_slice(FAST, 1, 0.5, 200, seed))

    @pytest.mark.parametrize("m", [6, 7])
    def test_infinite_exponent(self, m):
        got = large_slice_check(WITH_INF, m, 0.3, budget=200, seed=2)
        assert_same_report(got, scalar_large_slice(WITH_INF, m, 0.3, 200, 2))

    # at m=13, seed 9 the screened distance of the best pair is two ulps off
    # the exact fold, so returning the screened value would show here
    @pytest.mark.parametrize("m,budget,seed", [(8, 300, 1), (8, 300, 88), (13, 100, 9)])
    def test_distance_is_the_exact_fold_of_the_pair(self, m, budget, seed):
        rep = large_slice_check(GEO, m, 0.3, budget=budget, seed=seed)
        x, y = rep["pair"]
        assert rep["best_distance"] == nested_norm(GEO, x - y)

    def test_screen_agrees_with_scalar_fold(self):
        # 1000x inside the re-rank cut of 1e-9
        members = scalar_members(GEO, 8, 0.3, 600, 1)
        assert len(members) == large_slice_check(GEO, 8, 0.3, budget=600, seed=1)["members"]
        i, j = (np.array(t) for t in zip(*itertools.combinations(range(len(members)), 2)))
        cols = np.array(members).T
        screened = nested_sum_space._fold_columns(GEO, cols[:, i] - cols[:, j])
        exact = np.array([nested_norm(GEO, members[a] - members[b]) for a, b in zip(i, j)])
        np.testing.assert_allclose(screened, exact, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("budget", [0, 50, 600, 2000])
    def test_search_stops_at_the_distance_ceiling(self, budget, seed, monkeypatch):
        # at m=8 the deterministic pair is already 2 apart, the most two
        # members of the unit ball can be, so no pair is screened; the
        # members are still drawn and counted
        def screen(sched, members):
            raise AssertionError("screened past the ceiling")

        monkeypatch.setattr(nested_sum_space, "_near_max_pairs", screen)
        rep = large_slice_check(GEO, 8, 0.3, budget=budget, seed=seed)
        assert rep["best_distance"] == 2.0
        assert rep["members"] == len(scalar_members(GEO, 8, 0.3, budget, seed))

    def test_pairs_are_enumerated_row_major_across_blocks(self, monkeypatch):
        # a tiny block size, and a cut that keeps every pair
        members = list(np.random.default_rng(0).standard_normal((23, GEO.capacity)))
        monkeypatch.setattr(nested_sum_space, "_SCREEN_FLOATS", 7 * GEO.capacity)
        monkeypatch.setattr(nested_sum_space, "_RERANK_REL", 2.0)
        got = nested_sum_space._near_max_pairs(GEO, members)
        assert got == list(itertools.combinations(range(23), 2))

    def test_near_ties_are_all_reranked(self):
        # two pairs 1e-12 apart: the screen may order them either way
        x = np.zeros(GEO.capacity)
        x[7] = 0.8
        y = -x
        y2 = y.copy()
        y2[7] *= 1.0 - 1e-12
        got = nested_sum_space._near_max_pairs(GEO, [x, y, y2])
        assert got == [(0, 1), (0, 2)]

    def test_memory_stays_bounded(self):
        # 1384 members: an all-pairs difference array would take about 100 MB
        tracemalloc.start()
        try:
            large_slice_check(GEO, 8, 0.3, budget=2000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestLargeSlice:
    def test_deep_coordinate_wide_slice(self):
        rep = large_slice_check(GEO, m=8, epsilon=0.3, budget=100, seed=1)
        assert rep["best_distance"] > rep["target"]
        assert rep["best_distance"] > 1.8

    def test_pair_members_verify(self):
        rep = large_slice_check(GEO, m=8, epsilon=0.3, budget=50, seed=2)
        x, y = rep["pair"]
        for v in (x, y):
            assert nested_norm(GEO, v) <= 1.0 + 1e-12
            assert v[7] > 0.7

    def test_shallow_coordinate_logged(self):
        # a fast schedule makes even the first coordinate workable
        fast = ExponentSchedule.geometric(2.0, 32.0, 8)
        rep = large_slice_check(fast, m=1, epsilon=0.5, budget=50, seed=3)
        assert rep["best_distance"] > 0.0  # exploratory, no target asserted

    def test_resolution_error_for_tiny_eps(self):
        with pytest.raises(ResolutionError):
            large_slice_check(GEO, m=1, epsilon=0.01, budget=10, seed=0)

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            large_slice_check(GEO, m=8, epsilon=0.3, budget=-1, seed=0)


class TestSchedule:
    @pytest.mark.parametrize(
        "exponents", [(2.0, math.nan), (math.nan,), (math.nan, 3.0)]
    )
    def test_nan_exponent_rejected(self, exponents):
        with pytest.raises(DomainError):
            ExponentSchedule(exponents)

    @pytest.mark.parametrize("tail", [math.nan, math.inf, -1e-3])
    def test_bad_tail_rejected(self, tail):
        with pytest.raises(DomainError):
            ExponentSchedule((2.0, 4.0), tail_inv_sum=tail)

    @pytest.mark.parametrize(
        "kw",
        [
            {"base": 1e308, "count": 3},  # base ** 2 raises OverflowError
            {"start": 1e300, "base": 1e10, "count": 2},  # start * base is inf
            {"start": math.inf},
            {"base": math.nan},
            {"start": math.nan},
        ],
    )
    def test_geometric_overflow_and_nan_rejected(self, kw):
        with pytest.raises(DomainError):
            ExponentSchedule.geometric(**kw)

    def test_infinite_exponent_is_the_max(self):
        assert nested_norm(ExponentSchedule((math.inf,)), [0.5, -0.75]) == 0.75
        assert nested_norm(WITH_INF, [0.0] * 5 + [0.5, 0.5]) == 0.5
        assert product_condition(ExponentSchedule((2.0, math.inf)))[0] == math.sqrt(2.0)


@settings(max_examples=40, deadline=None)
@given(
    v=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
    c=st.floats(-4, 4, allow_nan=False),
)
def test_homogeneity_property(v, c):
    arr = np.asarray(v)
    assert nested_norm(GEO, c * arr) == pytest.approx(
        abs(c) * nested_norm(GEO, arr), abs=1e-9
    )
