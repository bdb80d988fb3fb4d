"""Algebraic properties of the aggregation functions.

Distributed correctness rests on these: merging partial states must be
associative and commutative with the identity ``init_empty``, and
splitting any value array across segments must give the same final
result as aggregating it whole.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import _FUNCTIONS, function_for
from repro.errors import ExecutionError
from repro.pql.ast_nodes import AggFunc

value_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              width=32),
    min_size=0, max_size=60,
)

ALL_FUNCS = sorted(_FUNCTIONS, key=lambda f: f.value)


def finalize_of(func, values):
    f = _FUNCTIONS[func]
    return f.finalize(f.aggregate(np.asarray(values)))


class TestSplitInvariance:
    @settings(max_examples=60, deadline=None)
    @given(value_lists, st.integers(0, 60))
    def test_split_equals_whole(self, values, split):
        split = min(split, len(values))
        for func in ALL_FUNCS:
            f = _FUNCTIONS[func]
            whole = f.aggregate(np.asarray(values))
            left = f.aggregate(np.asarray(values[:split]))
            right = f.aggregate(np.asarray(values[split:]))
            merged = f.merge(left, right)
            a, b = f.finalize(whole), f.finalize(merged)
            if isinstance(a, float) and isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-6, abs=1e-6), func
            else:
                assert a == b, func

    @settings(max_examples=40, deadline=None)
    @given(value_lists)
    def test_identity_merge(self, values):
        for func in ALL_FUNCS:
            f = _FUNCTIONS[func]
            state = f.aggregate(np.asarray(values))
            merged = f.merge(f.init_empty(), state)
            assert f.finalize(merged) == f.finalize(state), func


class TestSpecificSemantics:
    def test_count_ignores_values(self):
        f = _FUNCTIONS[AggFunc.COUNT]
        assert not f.needs_values
        assert f.aggregate(np.empty(7)) == 7

    def test_avg_exact_across_skewed_split(self):
        f = _FUNCTIONS[AggFunc.AVG]
        left = f.aggregate(np.asarray([1.0]))
        right = f.aggregate(np.asarray([2.0, 3.0, 4.0]))
        assert f.finalize(f.merge(left, right)) == 2.5

    def test_avg_of_nothing_is_zero(self):
        f = _FUNCTIONS[AggFunc.AVG]
        assert f.finalize(f.init_empty()) == 0.0

    def test_minmaxrange(self):
        assert finalize_of(AggFunc.MINMAXRANGE, [3, 9, 5]) == 6.0
        assert finalize_of(AggFunc.MINMAXRANGE, []) == 0.0

    def test_min_empty_is_inf(self):
        f = _FUNCTIONS[AggFunc.MIN]
        assert math.isinf(f.finalize(f.init_empty()))

    def test_distinctcount_dedupes_across_merge(self):
        f = _FUNCTIONS[AggFunc.DISTINCTCOUNT]
        left = f.aggregate(np.asarray([1, 2, 2]))
        right = f.aggregate(np.asarray([2, 3]))
        assert f.finalize(f.merge(left, right)) == 3

    def test_percentile_matches_numpy(self):
        values = np.asarray([1.0, 2.0, 3.0, 10.0, 100.0])
        assert finalize_of(AggFunc.PERCENTILE50, values.tolist()) == \
            pytest.approx(np.percentile(values, 50))
        assert finalize_of(AggFunc.PERCENTILE99, values.tolist()) == \
            pytest.approx(np.percentile(values, 99))

    def test_percentile_empty_is_null(self):
        # A percentile of no rows is unknowable, not 0.0 (a real p90
        # can legitimately be 0.0) — empty states finalize to None.
        assert finalize_of(AggFunc.PERCENTILE90, []) is None

    def test_percentile_est_empty_is_null(self):
        f = _FUNCTIONS[AggFunc.PERCENTILEEST90]
        assert f.finalize(f.init_empty()) is None

    def test_function_for_unknown_raises(self):
        from types import SimpleNamespace

        fake = SimpleNamespace(func="NOT_A_FUNCTION")
        with pytest.raises(ExecutionError):
            function_for(fake)


class TestGroupedAggregation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 4),
                           st.floats(-100, 100, allow_nan=False)),
                 min_size=1, max_size=80),
    )
    def test_grouped_matches_per_group(self, pairs):
        codes = np.asarray([p[0] for p in pairs])
        values = np.asarray([p[1] for p in pairs])
        num_groups = int(codes.max()) + 1
        for func in ALL_FUNCS:
            f = _FUNCTIONS[func]
            grouped = f.state_rows(
                f.aggregate_grouped(values, codes, num_groups))
            for group in range(num_groups):
                member_values = values[codes == group]
                if len(member_values) == 0:
                    continue
                expected = f.finalize(f.aggregate(member_values))
                got = f.finalize(grouped[group])
                if isinstance(expected, float):
                    assert got == pytest.approx(expected, rel=1e-6,
                                                abs=1e-6), func
                else:
                    assert got == expected, func
