"""The command line front end, driven through Click's test runner."""

import csv
import json

import pytest
from click.testing import CliRunner

from confidec.bench.vax import VaxSpec, generate_vax
from confidec.cli import cli
from confidec.dmn.tables import record_to_obj
from confidec.enclave.sealing import unseal
from confidec.fixtures import (
    load_patient_aggregation_docs,
    load_policy_text,
    load_table_doc,
)
from confidec.policy.alfa import parse_policy_descriptor
from confidec.service.builder import emit_audit_script

TABLES = ("PatientPrioritizationWithAggr", "Restock", "ChooseCarrier")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def home(tmp_path):
    return tmp_path / "state"


def _run(runner, home, *args, expect=0):
    result = runner.invoke(cli, [*args, "--home", str(home)])
    assert result.exit_code == expect, result.output + result.stderr
    return result


def _bundle_files(tmp_path):
    policies = tmp_path / "policies.alfa"
    policies.write_text(load_policy_text())
    table_paths = []
    for name in TABLES:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(load_table_doc(name)))
        table_paths.append(path)
    aggs = tmp_path / "aggregations.json"
    aggs.write_text(json.dumps(load_patient_aggregation_docs()))
    return policies, table_paths, aggs


def _bootstrap(runner, home, tmp_path, unit="unit1"):
    """Authority, two clients, one deployed unit. Returns the deploy result."""
    _run(runner, home, "ca", "init")
    _run(runner, home, "ca", "issue", "hub1",
         "--attr", "Role=MedicalHub", "--attr", "Country=Italy")
    _run(runner, home, "ca", "issue", "nosy1",
         "--attr", "Role=Patient", "--attr", "Country=Italy")
    _run(runner, home, "ccu", "init", unit)
    policies, tables, aggs = _bundle_files(tmp_path)
    args = ["ccu", "deploy", unit, "--policies", str(policies),
            "--aggregations", str(aggs)]
    for path in tables:
        args += ["--table", str(path)]
    return _run(runner, home, *args)


def _records_file(tmp_path, count=24):
    path = tmp_path / "records.json"
    objs = [record_to_obj(r) for r in generate_vax(VaxSpec("Patient", count))]
    path.write_text(json.dumps(objs))
    return path


def test_full_walkthrough(runner, home, tmp_path):
    deploy = _bootstrap(runner, home, tmp_path)
    measurement = deploy.output.strip()
    assert len(measurement) == 64 and int(measurement, 16) >= 0
    assert (home / "units" / "unit1" / "measurement.hex").read_text().strip() == measurement

    records = _records_file(tmp_path)
    result = _run(runner, home, "provide", "vax/patients", "Patient", str(records),
                  "--unit", "unit1", "--client", "hub1")
    receipt = json.loads(result.output)
    assert receipt["slim"]["records"] == receipt["full"]["records"] == 24
    assert receipt["slim"]["storedBytes"] < receipt["full"]["storedBytes"]

    out_path = tmp_path / "answer.json"
    result = _run(runner, home, "decide", "PatientPrioritizationWithAggr", "vax/patients",
                  "--unit", "unit1", "--client", "hub1", "--out", str(out_path))
    assert f"wrote {out_path}" in result.output
    answer = json.loads(out_path.read_text())
    assert answer["funcName"] == "PatientPrioritizationWithAggr"
    assert len(answer["results"]) == 24

    result = _run(runner, home, "verify-chain", "--unit", "unit1")
    assert "chain ok (2 entries)" in result.output


def test_policy_denial_maps_to_its_exit_code(runner, home, tmp_path):
    _bootstrap(runner, home, tmp_path)
    records = _records_file(tmp_path)
    _run(runner, home, "provide", "vax/patients", "Patient", str(records),
         "--unit", "unit1", "--client", "hub1")
    result = _run(runner, home, "decide", "PatientPrioritizationWithAggr", "vax/patients",
                  "--unit", "unit1", "--client", "nosy1", expect=16)
    assert result.stderr.strip() == "error: Access policy not satisfied"


def test_deciding_over_unprovisioned_data_fails_cleanly(runner, home, tmp_path):
    _bootstrap(runner, home, tmp_path)
    result = _run(runner, home, "decide", "Restock", "ghost-data",
                  "--unit", "unit1", "--client", "hub1", expect=16)
    assert "never published" in result.stderr


def test_provide_refuses_an_int_too_large_for_a_float(runner, home, tmp_path):
    _bootstrap(runner, home, tmp_path)
    records = tmp_path / "records.json"
    records.write_text('[{"id": "r1", "fields": {"Age": 1%s}}]' % ("0" * 400))
    result = _run(runner, home, "provide", "vax/patients", "Patient", str(records),
                  "--unit", "unit1", "--client", "hub1", expect=16)
    assert result.stderr.strip() == "error: record field holds a non-finite number"


def test_the_retired_light_mode_options_are_usage_errors(runner, home, tmp_path):
    _bootstrap(runner, home, tmp_path)
    result = _run(runner, home, "ccu", "init", "unit2", "--allow-light", expect=2)
    assert "No such option" in result.stderr and "--allow-light" in result.stderr
    assert not (home / "units" / "unit2").exists()

    records = _records_file(tmp_path, 6)
    result = _run(runner, home, "provide", "vax/patients", "Patient", str(records),
                  "--unit", "unit1", "--client", "hub1", "--light", expect=2)
    assert "No such option" in result.stderr and "--light" in result.stderr
    assert not (home / "units" / "unit1" / "store" / "chain.jsonl").exists()


def test_emit_audit_prints_the_exact_script(runner, home, tmp_path):
    _bootstrap(runner, home, tmp_path)
    result = _run(runner, home, "emit-audit", "PatientPrioritizationWithAggr",
                  "--unit", "unit1")
    specs = parse_policy_descriptor(load_policy_text())
    patient = next(s for s in specs if s.func_name == "PatientPrioritizationWithAggr")
    assert result.output == emit_audit_script(patient)


@pytest.mark.parametrize("damage", ["truncated", "flipped"])
def test_a_damaged_sealed_seed_exits_with_the_sealing_code(runner, home, tmp_path, damage):
    _bootstrap(runner, home, tmp_path)
    path = home / "units" / "unit1" / "sealed_seed.bin"
    blob = path.read_bytes()
    path.write_bytes(blob[:20] if damage == "truncated" else blob[:-1] + bytes([blob[-1] ^ 1]))
    result = _run(runner, home, "emit-audit", "PatientPrioritizationWithAggr",
                  "--unit", "unit1", expect=17)
    assert result.stderr == "error: sealed blob does not open under this identity\n"


CHAIN_MALFORMED = "notarization log line 1 is malformed"

# per kind of damage: the chain line it edits, the edit, and the error
CHAIN_DAMAGE = {
    # a well-formed line that breaks the chain
    "edited-address": (1, lambda obj: json.dumps(dict(obj, address="e" * 64)),
                       "chain breaks at sequence 1"),
    # lines that do not load; the error names the position, not the content
    "missing-key": (0, lambda obj: json.dumps({k: v for k, v in obj.items() if k != "prevHash"}),
                    CHAIN_MALFORMED),
    "not-an-object": (0, lambda obj: json.dumps(list(obj.values())), CHAIN_MALFORMED),
    "bad-hex": (0, lambda obj: json.dumps(dict(obj, prevHash="zz" * 32)), CHAIN_MALFORMED),
    "truncated": (0, lambda obj: json.dumps(obj)[:40], CHAIN_MALFORMED),
}


@pytest.mark.parametrize("damage", sorted(CHAIN_DAMAGE))
def test_verify_chain_reports_the_broken_entry(runner, home, tmp_path, damage):
    _bootstrap(runner, home, tmp_path)
    records = _records_file(tmp_path, 4)
    _run(runner, home, "provide", "vax/patients", "Patient", str(records),
         "--unit", "unit1", "--client", "hub1")
    chain_path = home / "units" / "unit1" / "store" / "chain.jsonl"
    lines = chain_path.read_text().splitlines()
    index, edit, message = CHAIN_DAMAGE[damage]
    lines[index] = edit(json.loads(lines[index]))
    chain_path.write_text("\n".join(lines) + "\n")

    result = _run(runner, home, "verify-chain", "--unit", "unit1", expect=15)
    assert result.stderr == f"error: {message}\n"
    if message == CHAIN_MALFORMED:
        # every command loads the log, so none runs on a malformed one
        result = _run(runner, home, "provide", "vax/patients", "Patient", str(records),
                      "--unit", "unit1", "--client", "hub1", expect=15)
        assert result.stderr == f"error: {message}\n"


NAMES_MALFORMED = "error: name registry line 1 is malformed\n"

# per kind of damage: the edit to the registry's first line
NAMES_DAMAGE = {
    "missing-key": lambda obj: json.dumps({k: v for k, v in obj.items() if k != "address"}),
    "wrong-type": lambda obj: json.dumps(dict(obj, version=str(obj["version"]))),
    "not-an-object": lambda obj: json.dumps(list(obj.values())),
    "truncated": lambda obj: json.dumps(obj)[:30],
}


@pytest.mark.parametrize("damage", sorted(NAMES_DAMAGE))
def test_a_malformed_name_registry_line_stops_every_command(runner, home, tmp_path, damage):
    _bootstrap(runner, home, tmp_path)
    records = _records_file(tmp_path, 4)
    _run(runner, home, "provide", "vax/patients", "Patient", str(records),
         "--unit", "unit1", "--client", "hub1")
    names_path = home / "units" / "unit1" / "store" / "names.jsonl"
    lines = names_path.read_text().splitlines()
    lines[0] = NAMES_DAMAGE[damage](json.loads(lines[0]))
    names_path.write_text("\n".join(lines) + "\n")

    # the error names the position, never the dataset name the line holds
    for args in (
        ("verify-chain", "--unit", "unit1"),
        ("provide", "vax/patients", "Patient", str(records), "--unit", "unit1",
         "--client", "hub1"),
        ("decide", "Restock", "vax/patients", "--unit", "unit1", "--client", "hub1"),
    ):
        result = _run(runner, home, *args, expect=15)
        assert result.stderr == NAMES_MALFORMED


def test_a_leftover_unit_json_is_not_read(runner, home, tmp_path):
    """`units/<name>/unit.json` once opted a unit into light mode; a home
    that still holds one provisions with per-record keys all the same."""
    _bootstrap(runner, home, tmp_path)
    unit_dir = home / "units" / "unit1"
    (unit_dir / "unit.json").write_text(json.dumps({"name": "unit1", "allowLight": True}))
    records = _records_file(tmp_path, 6)
    result = _run(runner, home, "provide", "vax/patients", "Patient", str(records),
                  "--unit", "unit1", "--client", "hub1")
    receipt = json.loads(result.output)
    assert "light" not in receipt and receipt["full"]["records"] == 6
    manifest = json.loads((unit_dir / "store" / "blobs" / receipt["full"]["address"]).read_bytes())
    assert len({entry["t"] for entry in manifest["records"]}) == 6
    result = _run(runner, home, "decide", "PatientPrioritizationWithAggr", "vax/patients",
                  "--unit", "unit1", "--client", "hub1")
    assert len(json.loads(result.output)["results"]) == 6


def test_seed_exchange_between_units(runner, home, tmp_path):
    _bootstrap(runner, home, tmp_path, unit="unit1")
    _run(runner, home, "ccu", "init", "unit2")
    policies, tables, aggs = _bundle_files(tmp_path)
    args = ["ccu", "deploy", "unit2", "--policies", str(policies),
            "--aggregations", str(aggs)]
    for path in tables:
        args += ["--table", str(path)]
    _run(runner, home, *args)

    result = _run(runner, home, "ccu", "exchange-seed", "unit1", "unit2")
    assert "seed moved from 'unit1' to 'unit2'" in result.output

    # both sealed seeds now open to the same value
    secret = (home / "platform_secret.bin").read_bytes()
    seeds = []
    for unit in ("unit1", "unit2"):
        d = home / "units" / unit
        identity = bytes.fromhex((d / "measurement.hex").read_text().strip())
        seeds.append(unseal(secret, identity, (d / "sealed_seed.bin").read_bytes()))
    assert seeds[0] == seeds[1]


def test_redeploying_changed_code_rotates_the_seed(runner, home, tmp_path):
    _bootstrap(runner, home, tmp_path)
    d = home / "units" / "unit1"
    secret = (home / "platform_secret.bin").read_bytes()

    def current_seed():
        identity = bytes.fromhex((d / "measurement.hex").read_text().strip())
        return unseal(secret, identity, (d / "sealed_seed.bin").read_bytes())

    seed_before = current_seed()
    policies, tables, aggs = _bundle_files(tmp_path)
    redeploy = ["ccu", "deploy", "unit1", "--policies", str(policies),
                "--aggregations", str(aggs)]
    for path in tables:
        redeploy += ["--table", str(path)]
    _run(runner, home, *redeploy)
    assert current_seed() == seed_before  # identical code keeps the seed

    # any byte of the bundle is part of the code identity
    touched = tmp_path / "policies_v2.alfa"
    touched.write_text(load_policy_text() + "\n")
    changed = ["ccu", "deploy", "unit1", "--policies", str(touched),
               "--aggregations", str(aggs)]
    for path in tables:
        changed += ["--table", str(path)]
    result = _run(runner, home, *changed)
    assert "sealed seed no longer matches" in result.stderr
    assert current_seed() != seed_before


def test_commands_refuse_to_run_without_their_prerequisites(runner, home, tmp_path):
    result = _run(runner, home, "ca", "issue", "hub1", expect=11)
    assert "no authority" in result.stderr

    result = _run(runner, home, "ccu", "init", "unit1", expect=11)
    assert "no authority" in result.stderr

    _run(runner, home, "ca", "init")
    result = _run(runner, home, "ca", "init", expect=11)
    assert "already exists" in result.stderr

    result = _run(runner, home, "verify-chain", "--unit", "ghost", expect=11)
    assert "no unit 'ghost'" in result.stderr

    result = _run(runner, home, "ca", "issue", "x", "--attr", "RoleOnly", expect=11)
    assert "expected KEY=VALUE" in result.stderr

    _run(runner, home, "ca", "issue", "hub1", "--attr", "Role=MedicalHub")
    _run(runner, home, "ccu", "init", "unit1")
    undeployed = "error: unit 'unit1' has no deployed bundle; run 'confidec ccu deploy'\n"
    records = _records_file(tmp_path, 2)
    result = _run(runner, home, "provide", "vax/patients", "Patient", str(records),
                  "--unit", "unit1", "--client", "hub1", expect=11)
    assert result.stderr == undeployed
    result = _run(runner, home, "decide", "Restock", "vax/patients",
                  "--unit", "unit1", "--client", "hub1", expect=11)
    assert result.stderr == undeployed


def test_missing_client_is_reported(runner, home, tmp_path):
    _bootstrap(runner, home, tmp_path)
    records = _records_file(tmp_path, 2)
    result = _run(runner, home, "provide", "d", "Patient", str(records),
                  "--unit", "unit1", "--client", "ghost", expect=11)
    assert "no client 'ghost'" in result.stderr


def test_bench_command_writes_csv(runner, tmp_path):
    out = tmp_path / "bench.csv"
    result = runner.invoke(cli, [
        "bench", "--experiment", "scaleRules", "--records", "60", "--columns", "2",
        "--rules", "20", "--repetitions", "3", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output + result.stderr
    assert result.output.startswith("# backend=")
    assert "wrote 1 rows" in result.output
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["experiment"] == "scaleRules"
    assert rows[0]["rules"] == "20"


@pytest.mark.parametrize("experiment", ["scaleMoons", "encryptionMode"])
def test_bench_rejects_unknown_experiments(runner, experiment):
    result = runner.invoke(cli, ["bench", "--experiment", experiment])
    assert result.exit_code == 2  # click argument validation
