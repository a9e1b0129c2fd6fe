"""Log-ratio core: CLR geometry, validation contract, zero handling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coda_atlas import (
    CodaError,
    Entity,
    Part,
    RatioDefinition,
    aitchison_distance,
    clr,
    clr_matrix,
    distance_matrix,
    geometric_mean,
    log_ratio_series,
    named_ratio,
    pairwise_log_ratio,
    replace_zeros,
    resolvable_ratios,
    validate_table,
)
from coda_atlas.errors import (
    DegenerateRow,
    DimensionMismatch,
    DuplicateEntityId,
    DuplicatePartName,
    IndexOutOfRange,
    InvalidOptions,
    NegativeValue,
    NonFiniteValue,
    NonPositiveValue,
    SamePart,
    UnknownPart,
)

from conftest import make_table, time_limit
from oracles import per_row_replace_zeros

positive_rows = st.lists(
    st.floats(min_value=1e-3, max_value=1e6), min_size=2, max_size=12
)


class TestPairwiseLogRatio:
    def test_two_part_value(self):
        assert pairwise_log_ratio([1.0, 4.0], 0, 1) == pytest.approx(
            -math.log(4.0), rel=1e-15
        )
        assert pairwise_log_ratio([635.0, 378.0], 0, 1) == pytest.approx(
            math.log(635.0 / 378.0), rel=1e-14
        )

    def test_equal_parts_give_zero(self):
        assert pairwise_log_ratio([7.0, 7.0], 0, 1) == 0.0

    @given(positive_rows)
    def test_antisymmetry_is_exact(self, row):
        for i in range(len(row)):
            for j in range(len(row)):
                if i == j:
                    continue
                assert pairwise_log_ratio(row, i, j) == -pairwise_log_ratio(row, j, i)

    def test_same_part_rejected(self):
        with pytest.raises(SamePart):
            pairwise_log_ratio([1.0, 2.0], 1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            pairwise_log_ratio([1.0, 2.0], 0, 2)
        with pytest.raises(IndexOutOfRange):
            pairwise_log_ratio([1.0, 2.0], -1, 0)


class TestClr:
    def test_two_part_values(self):
        got = clr([1.0, 4.0])
        assert got == pytest.approx([-math.log(2.0), math.log(2.0)], rel=1e-14)

    def test_constant_row_maps_to_zero(self):
        assert np.all(clr([5.0, 5.0, 5.0]) == 0.0)

    @given(positive_rows)
    def test_rows_sum_to_zero(self, row):
        assert abs(clr(row).sum()) < 1e-10

    @given(positive_rows, st.sampled_from([1e-6, 1.0, 1e6]))
    def test_scale_invariance(self, row, lam):
        base = clr(row)
        scaled = clr([lam * x for x in row])
        assert np.max(np.abs(scaled - base)) < 1e-10

    def test_clr_difference_equals_pairwise_ratio(self):
        row = [3.0, 11.0, 0.5, 92.0]
        c = clr(row)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert c[i] - c[j] == pytest.approx(
                        pairwise_log_ratio(row, i, j), rel=1e-12, abs=1e-12
                    )

    def test_matrix_matches_rowwise(self):
        table = make_table([[1.0, 4.0], [4.0, 1.0], [2.0, 2.0]])
        m = clr_matrix(table)
        for r in range(3):
            assert m.values[r] == pytest.approx(clr(table.values[r]), rel=1e-15)
        assert m.entity_ids == table.entity_ids
        assert not m.values.flags.writeable


class TestValidateTable:
    def test_zero_value_rejected_with_coordinates(self):
        with pytest.raises(NonPositiveValue) as info:
            make_table([[1.0, 2.0], [3.0, 0.0]])
        assert (info.value.row, info.value.col) == (1, 1)

    def test_negative_value_rejected(self):
        with pytest.raises(NonPositiveValue):
            make_table([[1.0, -2.0], [3.0, 4.0]])

    def test_nan_and_inf_rejected(self):
        with pytest.raises(NonFiniteValue) as info:
            make_table([[1.0, float("nan")], [3.0, 4.0]])
        assert (info.value.row, info.value.col) == (0, 1)
        with pytest.raises(NonFiniteValue):
            make_table([[1.0, 2.0], [float("inf"), 4.0]])

    def test_first_offender_is_row_major(self):
        # with reverse-sorted ids too: coordinates are input rows, not id order
        for ids in (None, ["b", "a"]):
            with pytest.raises(NonPositiveValue) as info:
                make_table([[1.0, 2.0, 3.0], [4.0, 0.0, 0.0]], ids=ids)
            assert (info.value.row, info.value.col) == (1, 1)

    def test_single_part_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_table([[1.0], [2.0]])

    def test_metadata_length_mismatch(self):
        parts = [
            Part(index=0, name="a", unit="t", role="financial"),
            Part(index=1, name="b", unit="t", role="financial"),
        ]
        extra = [Entity(id=f"e{k}", label="", sector_code="s") for k in range(2)]
        with pytest.raises(DimensionMismatch):
            validate_table([[1.0, 2.0]], parts, extra)
        with pytest.raises(DimensionMismatch):
            validate_table([[1.0, 2.0]], parts[:1], extra[:1])

    def test_duplicate_ids_and_part_names(self):
        with pytest.raises(DuplicateEntityId):
            make_table([[1.0, 2.0], [3.0, 4.0]], ids=["a", "a"])
        with pytest.raises(DuplicatePartName):
            make_table([[1.0, 2.0]], part_names=["x", "x"])

    def test_one_duplicate_among_60k_ids_is_reported_within_seconds(self):
        n = 60_000
        ids = [f"e{r:05d}" for r in range(n)]
        ids[-1] = ids[7]
        entities = [Entity(id=eid, label="", sector_code="s") for eid in ids]
        parts = [
            Part(index=0, name="a", unit="unitless", role="financial"),
            Part(index=1, name="b", unit="unitless", role="financial"),
        ]
        with time_limit(5.0), pytest.raises(DuplicateEntityId, match="^e00007$"):
            validate_table(np.ones((n, 2)), parts, entities)

    def test_duplicates_are_named_once_in_sorted_order(self):
        with pytest.raises(DuplicateEntityId, match="^a,c$"):
            make_table(np.ones((5, 2)), ids=["c", "a", "b", "a", "c"])

    def test_parts_reindexed_and_values_frozen(self):
        parts = [
            Part(index=9, name="a", unit="unitless", role="financial"),
            Part(index=7, name="b", unit="unitless", role="social"),
        ]
        entities = [Entity(id="e1", label="", sector_code="s")]
        table = validate_table([[1.0, 2.0]], parts, entities)
        assert [p.index for p in table.parts] == [0, 1]
        assert not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0, 0] = 5.0

    def test_rows_in_id_order_in_a_copy(self):
        raw = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        table = make_table(raw, ids=["k10", "k9", "a"])
        assert table.entity_ids == ("a", "k10", "k9")
        assert [e.label for e in table.entities] == ["Entity a", "Entity k10", "Entity k9"]
        assert table.values.tolist() == [[5.0, 6.0], [1.0, 2.0], [3.0, 4.0]]
        assert not np.shares_memory(table.values, raw)

    def test_part_role_must_be_known(self):
        with pytest.raises(InvalidOptions) as err:
            Part(index=0, name="x", unit="t", role="mystery")
        assert err.value.record() == (
            "InvalidOptions:part 'x': role 'mystery' not in ('financial', 'environmental', 'social')"
        )

    def test_part_name_must_be_nonempty(self):
        with pytest.raises(InvalidOptions) as err:
            Part(index=0, name="", unit="t", role="social")
        assert err.value.record() == "InvalidOptions:part name must be non-empty"


class TestGeometricMean:
    def test_simple_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0, rel=1e-14)

    def test_huge_values_do_not_overflow(self):
        assert geometric_mean([1e300, 1e300]) == pytest.approx(1e300, rel=1e-12)

    @given(positive_rows)
    def test_matches_direct_product_when_safe(self, row):
        direct = float(np.prod(row)) ** (1.0 / len(row))
        assert geometric_mean(row) == pytest.approx(direct, rel=1e-9)


class TestRatioSeries:
    def setup_method(self):
        self.table = make_table(
            [[2.0, 8.0, 1.0], [5.0, 10.0, 4.0], [7.0, 7.0, 7.0]],
            part_names=["alpha", "beta", "gamma"],
        )
        self.definition = RatioDefinition("beta_over_alpha", "beta", "alpha")

    def test_named_ratio_values(self):
        assert named_ratio(self.table, self.definition) == pytest.approx(
            [4.0, 2.0, 1.0]
        )

    def test_log_series_is_log_of_ratio(self):
        logs = log_ratio_series(self.table, self.definition)
        assert logs == pytest.approx(np.log([4.0, 2.0, 1.0]), rel=1e-14)

    def test_swapping_negates_exactly(self):
        swapped = RatioDefinition("alpha_over_beta", "alpha", "beta")
        a = log_ratio_series(self.table, self.definition)
        b = log_ratio_series(self.table, swapped)
        assert np.all(a == -b)

    def test_unknown_part_rejected(self):
        with pytest.raises(UnknownPart):
            named_ratio(self.table, RatioDefinition("bad", "beta", "delta"))

    def test_same_part_definition_rejected(self):
        with pytest.raises(SamePart):
            RatioDefinition("bad", "beta", "beta")

    def test_resolvable_ratios_keep_catalog_order(self):
        catalog = (
            RatioDefinition("gamma_over_beta", "gamma", "beta"),
            RatioDefinition("delta_over_alpha", "delta", "alpha"),
            self.definition,
            RatioDefinition("alpha_over_delta", "alpha", "delta"),
        )
        assert resolvable_ratios(self.table, catalog) == (catalog[0], catalog[2])
        assert resolvable_ratios(self.table, ()) == ()


class TestReplaceZeros:
    def test_reject_is_default_and_raises(self):
        with pytest.raises(NonPositiveValue) as info:
            replace_zeros([[0.0, 2.0, 2.0]])
        assert (info.value.row, info.value.col) == (0, 0)

    def test_multiplicative_example(self):
        got = replace_zeros([[0.0, 2.0, 2.0]], strategy="multiplicative", delta=0.65)
        assert got[0] == pytest.approx([1.3, 1.35, 1.35], rel=1e-12)

    def test_row_sum_preserved(self):
        rows = [[0.0, 2.0, 2.0], [1.0, 0.0, 0.0, 9.0], [5.0, 5.0]]
        for row in rows:
            out = replace_zeros([row], strategy="multiplicative", delta=0.4)
            assert out.sum() == pytest.approx(sum(row), rel=1e-12)

    def test_rows_without_zeros_untouched(self):
        got = replace_zeros(
            [[1.0, 2.0], [0.0, 4.0]], strategy="multiplicative", delta=0.5
        )
        assert np.all(got[0] == [1.0, 2.0])

    def test_negative_rejected_under_both_strategies(self):
        for strategy in ("reject", "multiplicative"):
            with pytest.raises(NegativeValue):
                replace_zeros([[1.0, -1.0]], strategy=strategy)

    def test_all_zero_row_degenerate(self):
        with pytest.raises(DegenerateRow):
            replace_zeros([[0.0, 0.0]], strategy="multiplicative")

    def test_replacement_mass_exceeding_row_degenerate(self):
        # 9 zeros at delta=1 would need 9 * min_positive = 9 > row sum 1.
        row = [[1.0] + [0.0] * 9]
        with pytest.raises(DegenerateRow):
            replace_zeros(row, strategy="multiplicative", delta=1.0)

    def test_bad_options_rejected(self):
        with pytest.raises(InvalidOptions):
            replace_zeros([[1.0, 2.0]], strategy="drop")
        with pytest.raises(InvalidOptions):
            replace_zeros([[1.0, 2.0]], strategy="multiplicative", delta=0.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=8),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200)
    @example(row=[0.0, 5e-324], delta=0.5)
    def test_output_always_positive_or_degenerate(self, row, delta):
        try:
            out = replace_zeros([row], strategy="multiplicative", delta=delta)
        except DegenerateRow:
            return
        assert np.all(out > 0.0)
        assert out.sum() == pytest.approx(sum(row), rel=1e-9)


@st.composite
def tables_with_scattered_zeros(draw):
    """An n x D table of positive cells with zeros in some rows, up to all of a row."""
    n, D = draw(st.integers(1, 30)), draw(st.integers(2, 8))
    cells = st.floats(min_value=1e-3, max_value=1e6)
    values = np.array(draw(st.lists(cells, min_size=n * D, max_size=n * D))).reshape(n, D)
    for r in draw(st.sets(st.integers(0, n - 1))):
        values[r, sorted(draw(st.sets(st.integers(0, D - 1), min_size=1)))] = 0.0
    return values


def zero_outcome(replace, values, delta):
    """The replaced values as bytes, or the error record."""
    try:
        return replace(values, delta).tobytes()
    except CodaError as exc:
        return exc.record()


class TestReplaceZerosOracle:
    @given(tables_with_scattered_zeros(), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    @example(values=np.array([[1.0, 2.0, 3.0], [1.0, 0.0, 0.0], [4.0, 0.0, 5.0]]), delta=1.0)
    @example(values=np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]), delta=0.5)
    def test_equals_the_per_row_loop(self, values, delta):
        def production(v, d):
            return replace_zeros(v, strategy="multiplicative", delta=d)

        expected = zero_outcome(per_row_replace_zeros, values, delta)
        assert zero_outcome(production, values, delta) == expected


class TestAitchisonDistance:
    def test_two_part_swap_distance(self):
        got = aitchison_distance([1.0, 4.0], [4.0, 1.0])
        assert got == pytest.approx(2.0 * math.sqrt(2.0) * math.log(2.0), rel=1e-13)

    def test_scaled_rows_at_distance_zero(self):
        assert aitchison_distance([2.0, 3.0, 5.0], [4.0, 6.0, 10.0]) < 1e-12

    def test_symmetry(self):
        a, b = [1.0, 2.0, 7.0], [3.0, 1.0, 1.0]
        assert aitchison_distance(a, b) == aitchison_distance(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            aitchison_distance([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(positive_rows, positive_rows, positive_rows)
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        d = min(len(a), len(b), len(c))
        if d < 2:
            return
        a, b, c = a[:d], b[:d], c[:d]
        ab = aitchison_distance(a, b)
        bc = aitchison_distance(b, c)
        ac = aitchison_distance(a, c)
        assert ac <= ab + bc + 1e-9

    # D past 128, where numpy's pairwise sum starts to recurse
    @given(
        st.integers(2, 5), st.integers(2, 260), st.floats(0.01, 10.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    @example(n=3, D=129, sigma=1.0, seed=0)
    @example(n=3, D=257, sigma=1.0, seed=1)
    def test_equals_the_distance_matrix_entries(self, n, D, sigma, seed):
        table = make_table(np.exp(sigma * np.random.default_rng(seed).normal(size=(n, D))))
        matrix = distance_matrix(clr_matrix(table)).values
        for i in range(n):
            for j in range(n):
                got = aitchison_distance(table.values[i], table.values[j])
                assert np.float64(got).tobytes() == matrix[i, j].tobytes(), (i, j)
