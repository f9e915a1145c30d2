"""Decision semantics: first hit wins, laziness, and oracle agreement."""

import pytest

from conftest import BUNDLED_FUNCS

from confidec.dmn import _kernel_py
from confidec.dmn._kernel_py import run_program
from confidec.dmn.cells import parse_condition
from confidec.dmn.engine import (
    decide_all,
    decide_record,
    decide_records,
    encode_batch,
    encode_records,
    eval_condition,
    kernel_backend,
)
from confidec.dmn.model import Record
from confidec.dmn.program import STATUS_NO_MATCH, AbortRecord, compile_table
from confidec.dmn.tables import parse_decision_table
from confidec.errors import (
    MissingAggregateError,
    MissingFieldError,
    TypeMismatchError,
)
from confidec.fixtures import load_patient_aggregations, load_table


def _rec(i, **fields):
    return Record(id=f"t-{i}", fields=fields)


def _kernel(table, records, aggregates=None):
    """The rule each record hits in the lowered table, or STATUS_NO_MATCH."""
    program = compile_table(table)
    return decide_records(program, encode_records(program, records), aggregates or {})


# -- condition evaluation -----------------------------------------------------

@pytest.mark.parametrize("cell,value,expected", [
    ("-", "anything", True),
    ("<18", 17, True),
    ("<18", 18, False),
    ("<=18", 18, True),
    (">250", 250.5, True),
    (">=60", 60, True),
    ("0", 0, True),
    ("0", 0.0, True),
    ("0", 1, False),
    ("[18..60[", 18, True),
    ("[18..60[", 60, False),
    ("]18..60]", 18, False),
    ("]18..60]", 60, True),
    ('"Asthma","Diabetes"', "Asthma", True),
    ('"Asthma","Diabetes"', "asthma", False),
    ("true", True, True),
    ("true", False, False),
    ("false", False, True),
])
def test_eval_condition_table(cell, value, expected):
    assert eval_condition(parse_condition(cell), value) is expected


def test_eval_condition_column_relation_reads_the_record():
    cond = parse_condition("<= Cap * 0.5")
    rec = _rec(0, stock=40, Cap=100)
    assert eval_condition(cond, 40, rec) is True
    assert eval_condition(cond, 51, rec) is False


def test_eval_condition_type_errors():
    with pytest.raises(TypeMismatchError):
        eval_condition(parse_condition("<18"), "seventeen")
    with pytest.raises(TypeMismatchError):
        eval_condition(parse_condition('"a"'), 3)
    with pytest.raises(TypeMismatchError):
        eval_condition(parse_condition("true"), 1)  # bool means bool, not 1
    with pytest.raises(MissingFieldError):
        eval_condition(parse_condition("<= Cap * 2"), 5, _rec(0, stock=5))


def test_booleans_are_not_numbers():
    with pytest.raises(TypeMismatchError):
        eval_condition(parse_condition("<18"), True)


# -- single-record decisions over the bundled tables ---------------------------

PATIENT = load_table("PatientPrioritizationWithAggr")


def _patient(i, age, pec, med, vac, fmh, consent):
    return _rec(
        i, Age=age, PreExistingConditions=pec, CurrentMedications=med,
        PreviousVaccinations=vac, FamilyMedicalHistory=fmh, ConsentFormSigned=consent,
    )


def test_patient_rules_with_pinned_aggregates():
    high = _patient(1, 72, "Diabetes", "Metformin", "COVID-19", "Heart Disease", True)
    res = decide_record(PATIENT, high, {"meanAge": 55.0, "sumAge": 400.0})
    assert (res.outcome, res.values, res.rule_index) == ("decided", ("High",), 0)

    medium = _patient(2, 30, "Asthma", "Metformin", "Influenza", "None", True)
    res = decide_record(PATIENT, medium, {"meanAge": 30.0, "sumAge": 90.0})
    assert (res.outcome, res.values, res.rule_index) == ("decided", ("Medium",), 1)

    low = _patient(3, 9, "None", "Lisinopril", "COVID-19", "None", True)
    res = decide_record(PATIENT, low, {"meanAge": 45.0, "sumAge": 0.0})
    assert (res.outcome, res.values, res.rule_index) == ("decided", ("Low",), 2)

    refused = _patient(4, 40, "Asthma", "Metformin", "Influenza", "Diabetes", False)
    res = decide_record(PATIENT, refused, {"meanAge": 45.0, "sumAge": 0.0})
    assert (res.outcome, res.values, res.rule_index) == ("decided", ("Ineligible",), 3)

    nomatch = _patient(5, 40, "None", "None", "None", "None", True)
    res = decide_record(PATIENT, nomatch, {"meanAge": 45.0, "sumAge": 0.0})
    assert (res.outcome, res.rule_index) == ("noMatch", None)


def test_aggregate_values_must_be_supplied():
    with pytest.raises(MissingAggregateError):
        decide_record(PATIENT, _patient(1, 72, "Diabetes", "Metformin",
                                        "COVID-19", "Diabetes", True))


def test_first_matching_rule_wins():
    # eligible for High on every column, but aggregates block rule 1,
    # and rule 2 requires age under 60
    rec = _patient(1, 72, "Asthma", "Metformin", "Influenza", "Diabetes", True)
    res = decide_record(PATIENT, rec, {"meanAge": 70.0, "sumAge": 300.0})
    assert res.rule_index == 0
    res = decide_record(PATIENT, rec, {"meanAge": 70.0, "sumAge": 100.0})
    assert res.outcome == "noMatch"


RESTOCK = load_table("Restock")


@pytest.mark.parametrize("stock,cap,pop,prog,expected", [
    (100, 2000, 30000, 5000, "Immediate"),
    (400, 2000, 60000, 8000, "Needed soon"),
    (150, 800, 25000, 4000, "Needed"),
    (450, 2000, 60000, 50000, "No need"),
    (900, 2000, 40000, 20000, "Medium priority"),
    (420, 900, 20000, 25000, "Lower priority"),
    (1500, 2000, 40000, 20000, None),
])
def test_restock_rules(stock, cap, pop, prog, expected):
    rec = _rec(0, CurrentVaccineStockLevel=stock, MaxStorageCapacity=cap,
               PopulationServed=pop, VaccinationProgress=prog)
    res = decide_record(RESTOCK, rec)
    if expected is None:
        assert res.outcome == "noMatch"
    else:
        assert res.values == (expected,)


# -- laziness -------------------------------------------------------------------

def test_missing_field_is_fine_under_wildcards():
    table = parse_decision_table({
        "name": "L",
        "columns": [
            {"name": "a", "kind": "input", "type": "number"},
            {"name": "b", "kind": "input", "type": "number"},
            {"name": "o", "kind": "output", "type": "string"},
        ],
        "rules": [
            {"conditions": ["<10", "-"], "outputs": ["first"]},
            {"conditions": ["-", "-"], "outputs": ["rest"]},
        ],
    })
    # b is never conditioned on, so records may omit it entirely
    assert decide_record(table, _rec(0, a=5)).values == ("first",)
    assert decide_all(table, [_rec(0, a=50)])[0].values == ("rest",)
    assert _kernel(table, [_rec(0, a=50)]) == [1]


def test_missing_field_raises_when_read():
    table = parse_decision_table({
        "name": "L",
        "columns": [
            {"name": "a", "kind": "input", "type": "number"},
            {"name": "o", "kind": "output", "type": "string"},
        ],
        "rules": [{"conditions": ["<10"], "outputs": ["x"]}],
    })
    with pytest.raises(MissingFieldError):
        decide_record(table, _rec(0, other=1))
    with pytest.raises(MissingFieldError):
        _kernel(table, [_rec(0, other=1)])
    with pytest.raises(TypeMismatchError):
        _kernel(table, [_rec(0, a="ten")])


def _batch(program, rows):
    """An encoded batch of value rows in the program's layout."""
    return encode_batch(program, [f"t-{i}" for i in range(len(rows))],
                        [list(column) for column in zip(*rows)])


def test_the_kernel_returns_one_hit_per_row_and_stops_at_the_first_bad_one():
    table = parse_decision_table({
        "name": "K",
        "columns": [
            {"name": "a", "kind": "input", "type": "number"},
            {"name": "b", "kind": "input", "type": "number"},
            {"name": "o", "kind": "output", "type": "string"},
        ],
        "rules": [
            {"conditions": ["<10", "-"], "outputs": ["low"]},
            {"conditions": ["-", ">0"], "outputs": ["b"]},
        ],
    })
    program = compile_table(table)
    good = [[5, None], [50, 1], [50, 0]]
    assert run_program(_batch(program, good), program) == [0, 1, STATUS_NO_MATCH]
    # row 3 reaches rule 2, which reads its missing `b`; row 4 is never run
    batch = _batch(program, good + [[50, None], [None, None]])
    with pytest.raises(AbortRecord) as aborted:
        run_program(batch, program)
    slot, row = aborted.value.args
    assert (program.slots[slot].name, row) == ("b", 3)


@pytest.mark.parametrize("name", BUNDLED_FUNCS)
def test_a_one_group_table_decides_each_row_without_a_call(name):
    """The first rule group is tested inside the row loop, and every bundled
    table fits one group."""
    table = load_table(name)
    specs = tuple(load_patient_aggregations()) if table.aggregate_columns else ()
    program = compile_table(table, specs)
    assert program.functions == ()
    names = program.run.__code__.co_names
    assert "_f0" not in names and set(names) <= {"_abort"}


def test_deciding_leaves_the_batch_as_it_was():
    """The aggregates reach the row loop as arguments, not as columns."""
    from confidec.bench.vax import VaxSpec, decision_batches, generate_vax
    from confidec.dmn.aggregate import evaluate_aggregate

    specs = load_patient_aggregations()
    program = compile_table(PATIENT, tuple(specs))
    assert [name for _, name in program.aggregate_slots] == ["meanAge", "sumAge"]
    records = decision_batches("Patient", generate_vax(VaxSpec("Patient", 40, seed=3)))["r1"]
    batch = encode_records(program, records)
    columns = list(batch.columns)
    aggs = {s.name: evaluate_aggregate(s, records) for s in specs}
    for _ in range(2):
        assert decide_records(program, batch, aggs) == _kernel(PATIENT, records, aggs)
        assert len(batch.columns) == len(columns)
        assert all(now is then for now, then in zip(batch.columns, columns))
    assert [batch.columns[j] for j, _ in program.aggregate_slots] == [None, None]


def test_batch_and_single_record_agree_on_bundled_data():
    from confidec.bench.vax import VaxSpec, decision_batches, generate_vax

    specs = load_patient_aggregations()
    records = generate_vax(VaxSpec("Patient", 60, seed=5))
    for batch in decision_batches("Patient", records).values():
        from confidec.dmn.aggregate import evaluate_aggregate

        aggs = {s.name: evaluate_aggregate(s, batch) for s in specs}
        whole = _kernel(PATIENT, batch, aggs)
        single = [decide_record(PATIENT, r, aggs) for r in batch]
        assert whole == [STATUS_NO_MATCH if r.rule_index is None else r.rule_index for r in single]


def test_decide_all_never_runs_the_kernel(monkeypatch):
    from confidec.bench.vax import VaxSpec, decision_batches, expected_outcome, generate_vax

    monkeypatch.setattr(
        _kernel_py, "run_program", lambda batch, program: [STATUS_NO_MATCH] * len(batch.ids)
    )
    specs = load_patient_aggregations()
    for batch in decision_batches("Patient", generate_vax(VaxSpec("Patient", 120))).values():
        for record, result in zip(batch, decide_all(PATIENT, batch, specs)):
            expected = expected_outcome("Patient", record.id)
            want = ("noMatch", ()) if expected == "noMatch" else ("decided", (expected,))
            assert (result.outcome, result.values) == want, record.id


def test_backend_is_reported():
    assert kernel_backend() == "py"
