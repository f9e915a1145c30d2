"""The synthetic vaccination datasets and their designed outcomes."""

import pytest

from confidec.bench.vax import (
    CARRIER_FIELD_COUNT,
    CENTER_FIELD_COUNT,
    PATIENT_FIELD_COUNT,
    VAX_ROLES,
    VaxSpec,
    cohort_of_id,
    decision_batches,
    expected_outcome,
    generate_vax,
)
from confidec.dmn.engine import decide_all
from confidec.fixtures import load_patient_aggregations, load_table

FIELD_COUNTS = {
    "Patient": PATIENT_FIELD_COUNT,
    "VaccinationCenter": CENTER_FIELD_COUNT,
    "Carrier": CARRIER_FIELD_COUNT,
}
TABLE_FOR_ROLE = {
    "Patient": "PatientPrioritizationWithAggr",
    "VaccinationCenter": "Restock",
    "Carrier": "ChooseCarrier",
}
COHORT_COUNTS = {"Patient": 5, "VaccinationCenter": 7, "Carrier": 11}


@pytest.mark.parametrize("role", VAX_ROLES)
def test_every_record_has_the_advertised_field_count(role):
    for record in generate_vax(VaxSpec(role, 60)):
        assert len(record.fields) == FIELD_COUNTS[role], record.id


@pytest.mark.parametrize("role", VAX_ROLES)
def test_generation_is_deterministic(role):
    assert generate_vax(VaxSpec(role, 40)) == generate_vax(VaxSpec(role, 40))


@pytest.mark.parametrize("role", VAX_ROLES)
def test_shorter_runs_are_prefixes_of_longer_ones(role):
    short = generate_vax(VaxSpec(role, 25))
    long = generate_vax(VaxSpec(role, 100))
    assert long[:25] == short


def test_seed_changes_the_data_but_not_the_shape():
    a = generate_vax(VaxSpec("Patient", 20, seed=1))
    b = generate_vax(VaxSpec("Patient", 20, seed=2))
    assert [r.id for r in a] == [r.id for r in b]  # ids and cohorts are positional
    assert a != b


@pytest.mark.parametrize("role", VAX_ROLES)
def test_ids_are_unique_and_carry_a_cohort(role):
    records = generate_vax(VaxSpec(role, 4 * COHORT_COUNTS[role]))
    assert len({r.id for r in records}) == len(records)
    seen = {cohort_of_id(r.id) for r in records}
    assert len(seen) == COHORT_COUNTS[role]
    for record in records:
        assert expected_outcome(role, record.id)  # every cohort has a verdict


def test_vax_spec_is_validated():
    with pytest.raises(ValueError):
        VaxSpec("Pharmacy", 10)
    with pytest.raises(ValueError):
        VaxSpec("Patient", -1)


def test_patient_batches_merge_the_shadow_cohort():
    records = generate_vax(VaxSpec("Patient", 32))
    batches = decision_batches("Patient", records)
    assert set(batches) == {"r1", "r2", "r3", "r4"}
    assert sum(len(b) for b in batches.values()) == 32
    assert {cohort_of_id(r.id) for r in batches["r3"]} == {"r3", "nm"}
    for key in ("r1", "r2", "r4"):
        assert {cohort_of_id(r.id) for r in batches[key]} == {key}


def test_non_patient_roles_form_one_batch():
    records = generate_vax(VaxSpec("Carrier", 15))
    assert decision_batches("Carrier", records) == {"all": records}


@pytest.mark.parametrize("role", ["VaccinationCenter", "Carrier"])
def test_cohorts_land_on_their_designed_rules(role):
    table = load_table(TABLE_FOR_ROLE[role])
    records = generate_vax(VaxSpec(role, 10 * COHORT_COUNTS[role]))
    for record, result in zip(records, decide_all(table, records)):
        expected = expected_outcome(role, record.id)
        if expected == "noMatch":
            assert result.outcome == "noMatch", record.id
        else:
            assert result.values == (expected,), record.id


def test_patient_cohorts_land_on_their_designed_rules_per_batch():
    table = load_table("PatientPrioritizationWithAggr")
    agg_specs = load_patient_aggregations()
    records = generate_vax(VaxSpec("Patient", 120))
    for batch in decision_batches("Patient", records).values():
        for record, result in zip(batch, decide_all(table, batch, agg_specs)):
            expected = expected_outcome("Patient", record.id)
            if expected == "noMatch":
                assert result.outcome == "noMatch", record.id
            else:
                assert result.values == (expected,), record.id
