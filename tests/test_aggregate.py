"""Batch aggregation semantics: reducers, filters and empty selections."""

import math

import pytest
from hypothesis import given, strategies as st

from confidec.dmn.aggregate import evaluate_aggregate
from confidec.dmn.model import Record
from confidec.dmn.tables import parse_aggregation_spec
from confidec.errors import AggregationError


def _spec(reducer, target="v", filters=()):
    return parse_aggregation_spec({
        "name": "a",
        "reducer": reducer,
        "targetField": target,
        "filter": [{"field": f, "cell": c} for f, c in filters],
    })


def _recs(*values, **extra):
    return [Record(id=f"r{i}", fields={"v": v, **extra}) for i, v in enumerate(values)]


def test_reducers():
    records = _recs(10, 20, 30, 40)
    assert evaluate_aggregate(_spec("mean"), records) == 25.0
    assert evaluate_aggregate(_spec("sum"), records) == 100.0
    assert evaluate_aggregate(_spec("max"), records) == 40.0
    assert evaluate_aggregate(_spec("min"), records) == 10.0


def test_filter_atoms_select_records():
    records = [
        Record(id="a", fields={"v": 10, "tag": "x"}),
        Record(id="b", fields={"v": 20, "tag": "y"}),
        Record(id="c", fields={"v": 30, "tag": "x"}),
    ]
    spec = _spec("sum", filters=[("tag", '"x"')])
    assert evaluate_aggregate(spec, records) == 40.0


def test_filter_conjunction():
    records = [
        Record(id="a", fields={"v": 10, "n": 5}),
        Record(id="b", fields={"v": 20, "n": 9}),
        Record(id="c", fields={"v": 40, "n": 9}),
    ]
    spec = _spec("sum", filters=[("n", ">=9"), ("v", ">=40")])
    assert evaluate_aggregate(spec, records) == 40.0


def test_filters_never_raise_on_missing_or_mistyped_fields():
    records = [
        Record(id="a", fields={"v": 10}),               # no tag at all
        Record(id="b", fields={"v": 20, "tag": 7}),     # tag is not a string
        Record(id="c", fields={"v": 30, "tag": "x"}),
    ]
    spec = _spec("sum", filters=[("tag", '"x"')])
    assert evaluate_aggregate(spec, records) == 30.0


def test_target_field_must_be_numeric_when_selected():
    records = [Record(id="a", fields={"v": "ten"})]
    with pytest.raises(AggregationError):
        evaluate_aggregate(_spec("sum"), records)
    # but a record filtered out never has its target read
    spec = _spec("sum", filters=[("v", ">0")])
    assert evaluate_aggregate(spec, records) == 0.0


def test_missing_target_on_selected_record_errors():
    records = [Record(id="a", fields={"other": 1})]
    with pytest.raises(AggregationError):
        evaluate_aggregate(_spec("sum"), records)


def test_empty_selection_semantics():
    records = _recs(1, 2, 3)
    nothing = [("v", ">100")]
    assert evaluate_aggregate(_spec("sum", filters=nothing), records) == 0.0
    for reducer in ("mean", "max", "min"):
        with pytest.raises(AggregationError):
            evaluate_aggregate(_spec(reducer, filters=nothing), records)


def test_empty_batch():
    assert evaluate_aggregate(_spec("sum"), []) == 0.0
    with pytest.raises(AggregationError):
        evaluate_aggregate(_spec("mean"), [])


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_sum_and_mean_are_permutation_invariant(values, rng):
    records = _recs(*values)
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert evaluate_aggregate(_spec("sum"), records) == evaluate_aggregate(_spec("sum"), shuffled)
    assert evaluate_aggregate(_spec("mean"), records) == evaluate_aggregate(_spec("mean"), shuffled)


def test_fsum_precision():
    # naive running sums drift on this; fsum does not
    values = [1e16, 1.0, -1e16] * 10
    records = _recs(*values)
    assert evaluate_aggregate(_spec("sum"), records) == 10.0


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=30))
def test_reducers_match_stdlib(values):
    records = _recs(*[float(v) for v in values])
    assert evaluate_aggregate(_spec("sum"), records) == math.fsum(values)
    assert evaluate_aggregate(_spec("max"), records) == max(values)
    assert evaluate_aggregate(_spec("min"), records) == min(values)
    assert evaluate_aggregate(_spec("mean"), records) == pytest.approx(
        math.fsum(values) / len(values)
    )
