"""Descriptive summaries, skewness and the raw-vs-log pathology report."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from coda_atlas import RatioDefinition, describe, outlier_count, skewness
from coda_atlas.errors import EmptyInput, NonFiniteStatistic, TooFewValues, ZeroVariance
from coda_atlas.stats import (
    _linear_quantiles,
    describe_csv,
    pathology_json,
    pathology_report,
    summarize_table,
)

from conftest import make_table
from oracles import linear_quantile

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60
)
#: samples with many ties, extreme magnitudes and n = 1 and 2
tied_samples = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 1.0 + 2**-52, 3.0, -2.5, 5e-324, 1e300, -1e300]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)
QUANTILES = [0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.9, 1 / 3]


class TestDescribe:
    def test_four_values(self):
        s = describe([1.0, 2.0, 3.0, 4.0], name="quad")
        assert s.name == "quad"
        assert s.n == 4
        assert s.mean == 2.5
        assert s.sd == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-14)
        assert (s.minimum, s.maximum) == (1.0, 4.0)
        assert s.q1 == pytest.approx(1.75)
        assert s.median == pytest.approx(2.5)
        assert s.q3 == pytest.approx(3.25)

    def test_singleton_has_zero_sd(self):
        s = describe([42.0])
        assert s.sd == 0.0
        assert s.mean == s.median == s.minimum == s.maximum == 42.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            describe([])

    def test_non_finite_rejected(self):
        with pytest.raises(EmptyInput):
            describe([1.0, float("nan")])

    @pytest.mark.parametrize(
        "values, statistic",
        [([1e300, 1.0, 2.0], "sd"), ([1e308, 1e308], "mean")],
    )
    def test_statistic_beyond_float64_names_the_column(self, values, statistic):
        with pytest.raises(NonFiniteStatistic) as info:
            describe(values, name="assets")
        assert info.value.record() == f"NonFiniteStatistic:column=assets,statistic={statistic}"

    @given(samples)
    @settings(max_examples=150)
    def test_quartiles_match_first_principles(self, values):
        s = describe(values)
        assert s.q1 == pytest.approx(linear_quantile(values, 0.25), abs=1e-9)
        assert s.median == pytest.approx(linear_quantile(values, 0.5), abs=1e-9)
        assert s.q3 == pytest.approx(linear_quantile(values, 0.75), abs=1e-9)
        assert s.minimum == min(values)
        assert s.maximum == max(values)

    def test_order_invariance(self):
        a = describe([5.0, 1.0, 3.0, 2.0, 4.0])
        b = describe([1.0, 2.0, 3.0, 4.0, 5.0])
        assert a == b


class TestSkewness:
    def test_symmetric_sample_is_zero(self):
        assert skewness([1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_right_tail_positive(self):
        assert skewness([1.0, 1.0, 1.0, 10.0]) > 0.0

    def test_needs_three_values(self):
        with pytest.raises(TooFewValues):
            skewness([1.0, 2.0])

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            skewness([3.0, 3.0, 3.0])

    def test_matches_adjusted_reference(self, rng):
        for size in (3, 5, 17, 200):
            values = rng.lognormal(0.0, 1.0, size=size)
            expected = float(scipy.stats.skew(values, bias=False))
            assert skewness(values) == pytest.approx(expected, rel=1e-10)

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=40
        )
    )
    @settings(max_examples=150)
    def test_reference_agreement_property(self, values):
        arr = np.array(values)
        # keep scipy's division well-conditioned: skip near-constant samples
        if np.std(arr) <= 1e-9 * max(1.0, np.max(np.abs(arr))):
            return
        expected = float(scipy.stats.skew(arr, bias=False))
        if not math.isfinite(expected):
            return
        assert skewness(values) == pytest.approx(expected, rel=1e-8, abs=1e-8)


class TestLinearQuantiles:
    @given(tied_samples)
    @settings(max_examples=400)
    def test_equals_numpy_quantile_exactly(self, values):
        v = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.quantile(v, QUANTILES, method="linear")
            got = _linear_quantiles(v, QUANTILES)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "values", [[2.0], [2.0, 7.0], [7.0, 2.0], [1.0, 1.0], [np.nan, 1.0, 2.0], [np.inf, 1.0]]
    )
    def test_small_and_non_finite_samples_equal_numpy(self, values):
        v = np.array(values)
        with np.errstate(invalid="ignore"):
            expected = np.quantile(v, QUANTILES, method="linear")
            got = _linear_quantiles(v, QUANTILES)
        np.testing.assert_array_equal(got, expected)

    @given(tied_samples.filter(lambda v: len(v) >= 4))
    @settings(max_examples=150)
    def test_outlier_fences_equal_numpy_quantile_fences(self, values):
        v = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            q1, q3 = np.quantile(v, [0.25, 0.75], method="linear")
            iqr = q3 - q1
            expected = int(np.count_nonzero((v < q1 - 1.5 * iqr) | (v > q3 + 1.5 * iqr)))
            assert outlier_count(values) == expected


class TestOutlierCount:
    def test_single_far_point(self):
        assert outlier_count([1.0, 2.0, 3.0, 4.0, 100.0]) == 1

    def test_uniform_run_has_none(self):
        assert outlier_count(list(range(1, 11))) == 0

    def test_wider_fences_absorb(self):
        values = [1.0, 2.0, 3.0, 4.0, 9.0]
        assert outlier_count(values, k=1.5) == 1
        assert outlier_count(values, k=10.0) == 0

    def test_needs_four_values(self):
        with pytest.raises(TooFewValues):
            outlier_count([1.0, 2.0, 3.0])


class TestPathologyReport:
    def _lognormal_table(self, rng, n=200, sigma=1.0):
        ratio = np.exp(rng.normal(0.0, sigma, size=n))
        ones = np.ones(n)
        return make_table(
            np.column_stack([ratio, ones]), part_names=["num", "den"]
        )

    def test_log_transform_reduces_skew(self, rng):
        table = self._lognormal_table(rng)
        report = pathology_report(
            table, [RatioDefinition("lab", "num", "den")]
        )
        (entry,) = report.entries
        assert entry.status == "ok"
        assert entry.skew_reduced is True
        assert abs(entry.skew_log) < abs(entry.skew_raw)
        assert entry.outliers_raw >= entry.outliers_log

    def test_missing_part_is_not_applicable(self, rng):
        table = self._lognormal_table(rng, n=10)
        report = pathology_report(
            table, [RatioDefinition("ghost", "num", "nothere")]
        )
        (entry,) = report.entries
        assert entry.status == "not_applicable"
        assert entry.reason == "UnknownPart"

    def test_constant_ratio_is_not_applicable(self):
        table = make_table(
            [[2.0, 1.0], [4.0, 2.0], [8.0, 4.0]], part_names=["a", "b"]
        )
        report = pathology_report(table, [RatioDefinition("flat", "a", "b")])
        (entry,) = report.entries
        assert entry.status == "not_applicable"
        assert entry.reason == "ZeroVariance"

    def test_small_sample_skips_outliers(self):
        table = make_table(
            [[1.0, 1.0], [2.0, 1.0], [9.0, 1.0]], part_names=["a", "b"]
        )
        report = pathology_report(table, [RatioDefinition("r", "a", "b")])
        (entry,) = report.entries
        assert entry.status == "ok"
        assert entry.outliers_raw is None and entry.outliers_log is None

    def test_json_document_shape(self, rng):
        table = self._lognormal_table(rng, n=20)
        report = pathology_report(
            table,
            [
                RatioDefinition("good", "num", "den"),
                RatioDefinition("ghost", "num", "nothere"),
            ],
        )
        doc = pathology_json(report)
        assert doc["n"] == 20
        assert [e["ratio"] for e in doc["ratios"]] == ["good", "ghost"]
        assert "skew_raw" in doc["ratios"][0]
        assert doc["ratios"][1] == {
            "ratio": "ghost",
            "status": "not_applicable",
            "reason": "UnknownPart",
        }


class TestTableSummaries:
    def test_parts_then_resolvable_ratios(self):
        table = make_table(
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], part_names=["a", "b", "c"]
        )
        defs = [
            RatioDefinition("b_over_a", "b", "a"),
            RatioDefinition("ghost", "b", "zz"),
        ]
        names = [s.name for s in summarize_table(table, defs)]
        assert names == ["a", "b", "c", "b_over_a"]

    def test_csv_header_and_roundtrip(self):
        table = make_table([[1.0, 3.0], [2.0, 5.0]], part_names=["a", "b"])
        text = describe_csv(summarize_table(table, []))
        lines = text.strip().split("\n")
        assert lines[0] == "name,n,mean,sd,min,q1,median,q3,max"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "a" and first[1] == "2"
        assert float(first[2]) == 1.5
