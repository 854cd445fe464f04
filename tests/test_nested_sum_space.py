import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: the tests' schedules and four more geometric ones, (base, start, count)
SURVEY = [GEO, FAST, WITH_INF] + [
    ExponentSchedule.geometric(*bsc)
    for bsc in ((2.0, 2.0, 12), (1.5, 4.0, 16), (2.0, 8.0, 8), (3.0, 2.0, 10))
]


def admissible_slices():
    """(schedule, m, ε) for every m whose tail product 2^(Σ_{i≥m} 1/p_i)
    stays within 1 + ε/4."""
    for i, sched in enumerate(SURVEY):
        for eps in (0.1, 0.3, 0.6, 0.9):
            for m in range(1, sched.capacity + 1):
                if 2.0 ** sched.inv_sum(start=m) <= 1.0 + eps / 4.0:
                    yield pytest.param(sched, m, eps, id=f"s{i}-m{m}-eps{eps}")


@pytest.mark.parametrize("sched,m,eps", admissible_slices())
def test_deterministic_pair(sched, m, eps):
    rep = large_slice_check(sched, m, eps)
    x, y = rep["pair"]
    assert rep["members"] == 2
    for v in (x, y):
        assert nested_norm(sched, v) <= 1.0
        assert v[m - 1] > 1.0 - eps
    # ±c sits on the last coordinate, or on the one before it at m = capacity
    dim = sched.capacity
    k, p = (dim - 1, sched.exponents[m - 1]) if m < dim else (dim - 2, sched.exponents[-1])
    c = (1.0 - x[m - 1] ** p) ** (1.0 / p)
    want = np.zeros(dim)
    want[m - 1] = x[m - 1]
    want[k] = c
    assert np.array_equal(x, want)
    want[k] = -c
    assert np.array_equal(y, want)
    assert rep["best_distance"] == nested_norm(sched, x - y) == 2.0 * c
    assert rep["best_distance"] > 0.0


class TestLargeSlice:
    def test_deep_coordinate_wide_slice(self):
        rep = large_slice_check(GEO, m=8, epsilon=0.3)
        assert rep["best_distance"] > rep["target"]
        assert rep["best_distance"] > 1.8

    def test_pair_members_verify(self):
        rep = large_slice_check(GEO, m=8, epsilon=0.3)
        x, y = rep["pair"]
        for v in (x, y):
            assert nested_norm(GEO, v) <= 1.0 + 1e-12
            assert v[7] > 0.7

    def test_shallow_coordinate_logged(self):
        # a fast schedule makes even the first coordinate workable
        fast = ExponentSchedule.geometric(2.0, 32.0, 8)
        rep = large_slice_check(fast, m=1, epsilon=0.5)
        assert rep["best_distance"] > 0.0  # exploratory, no target asserted

    def test_resolution_error_for_tiny_eps(self):
        with pytest.raises(ResolutionError):
            large_slice_check(GEO, m=1, epsilon=0.01)


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
