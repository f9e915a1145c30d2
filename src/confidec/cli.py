"""Command line front end.

State lives under a home directory (--home or CONFIDEC_HOME):

    authority/            CA signing key and its public verify key
    clients/<name>/       per-client signing key and certificate
    units/<name>/         unit identity, deployed bundle, store/, and
                          sealed_seed.bin (the seed sealed as raw wire bytes)
    platform_secret.bin   sealing secret shared by units in this home

Every data-path command goes through the gateway queue and encrypted
envelopes, exactly like a remote caller would.
"""

from __future__ import annotations

import functools
import json
import sys
from datetime import timedelta
from pathlib import Path

import click

from confidec.bench.harness import BenchConfig, EXPERIMENTS, run_benchmark, write_csv
from confidec.crypto.certs import (
    certificate_from_obj,
    certificate_to_obj,
    issue_certificate,
)
from confidec.crypto.keys import SigningKeyPair
from confidec.dmn.engine import kernel_backend
from confidec.enclave.ccu import Ccu, exchange_seed, generate_seed
from confidec.enclave.measurement import CodeBundle
from confidec.enclave.sealing import load_or_create_platform_secret
from confidec.errors import (
    AttestationError,
    CertificateError,
    ConfidecError,
    DecisionRejected,
    GatewayError,
    SealingError,
    StorageError,
)
from confidec.gateway.client import ClientSession
from confidec.gateway.queue import Gateway
from confidec.gateway.wire import RequestEnvelope
from confidec.service.builder import emit_audit_script
from confidec.storage.node import StorageNode
from confidec.util import utcnow

# Exit codes by failure class; click keeps 1-2 for itself.
_EXIT_BY_ERROR = (
    (DecisionRejected, 14),
    (SealingError, 17),
    (AttestationError, 13),
    (CertificateError, 12),
    (StorageError, 15),
    (GatewayError, 16),
    (ConfidecError, 11),
    (ValueError, 10),
)


def _fail_cleanly(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except tuple(err for err, _ in _EXIT_BY_ERROR) as exc:
            code = next(c for err, c in _EXIT_BY_ERROR if isinstance(exc, err))
            click.echo(f"error: {exc}", err=True)
            sys.exit(code)

    return wrapper


def _home_option(fn):
    return click.option(
        "--home",
        envvar="CONFIDEC_HOME",
        default="~/.confidec",
        show_default=True,
        help="State directory.",
    )(fn)


def _home_path(home: str) -> Path:
    return Path(home).expanduser()


def _read_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_authority_key(home: Path) -> SigningKeyPair:
    pem = home / "authority" / "key.pem"
    if not pem.exists():
        raise ConfidecError(f"no authority at {pem}; run 'confidec ca init' first")
    return SigningKeyPair.from_pem(pem.read_bytes())


def _authority_verify_key(home: Path) -> bytes:
    der = home / "authority" / "verify.der"
    if not der.exists():
        raise ConfidecError(f"no authority at {der}; run 'confidec ca init' first")
    return der.read_bytes()


def _unit_dir(home: Path, name: str) -> Path:
    d = home / "units" / name
    if not d.exists():
        raise ConfidecError(f"no unit {name!r} under {home}; run 'confidec ccu init'")
    return d


def _load_unit(home: Path, name: str) -> Ccu:
    """Rebuild a unit from disk: identity, bundle and sealed seed if present."""

    d = _unit_dir(home, name)
    unit = Ccu(
        name=name,
        authority_verify_key=_authority_verify_key(home),
        identity_cert=certificate_from_obj(_read_json(d / "cert.json")),
        signing_key=SigningKeyPair.from_pem((d / "key.pem").read_bytes()),
        platform_secret=load_or_create_platform_secret(home / "platform_secret.bin"),
        storage=StorageNode.at_directory(d / "store"),
    )
    bundle_path = d / "bundle.json"
    if bundle_path.exists():
        doc = _read_json(bundle_path)
        unit.deploy(CodeBundle(
            policy_text=doc["policyText"],
            tables_json=doc["tablesJson"],
            aggregations_json=doc["aggregationsJson"],
            engine_tag=doc["engineTag"],
        ))
    sealed_path = d / "sealed_seed.bin"
    if sealed_path.exists():
        unit.load_sealed_seed(sealed_path.read_bytes())
    return unit


def _save_seed(home: Path, unit: Ccu) -> None:
    (home / "units" / unit.name / "sealed_seed.bin").write_bytes(unit.seal_seed())


def _attested_session(home: Path, client: str, unit: Ccu) -> ClientSession:
    published = home / "units" / unit.name / "measurement.hex"
    if not published.exists():
        raise ConfidecError(
            f"unit {unit.name!r} has no deployed bundle; run 'confidec ccu deploy'"
        )
    d = home / "clients" / client
    if not d.exists():
        raise ConfidecError(f"no client {client!r} under {home}; run 'confidec ca issue'")
    session = ClientSession(
        certificate=certificate_from_obj(_read_json(d / "cert.json")),
        signing_key=SigningKeyPair.from_pem((d / "key.pem").read_bytes()),
        authority_verify_key=_authority_verify_key(home),
    )
    session.attest(unit.evidence(), bytes.fromhex(published.read_text().strip()))
    return session


def _submit(unit: Ccu, envelope: RequestEnvelope):
    """One request through a real gateway queue."""

    gateway = Gateway(unit.handle, capacity=8)
    try:
        ticket = gateway.submit(envelope)
        return gateway.await_response(ticket, timeout=600.0)
    finally:
        gateway.close()


@click.group()
def cli() -> None:
    """Confidential decision support over encrypted records."""


# -- authority ----------------------------------------------------------------

@cli.group()
def ca() -> None:
    """Certificate authority."""


@ca.command("init")
@_home_option
@_fail_cleanly
def ca_init(home: str) -> None:
    """Create the authority signing key."""

    root = _home_path(home) / "authority"
    if (root / "key.pem").exists():
        raise ConfidecError(f"authority already exists at {root}")
    root.mkdir(parents=True, exist_ok=True)
    key = SigningKeyPair.generate()
    pem = root / "key.pem"
    pem.touch(mode=0o600)
    pem.write_bytes(key.private_pem())
    (root / "verify.der").write_bytes(key.verify_key)
    click.echo(f"authority created at {root}")


@ca.command("issue")
@click.argument("subject")
@click.option("--attr", "attrs", multiple=True, metavar="KEY=VALUE",
              help="Certificate attribute, repeatable.")
@click.option("--days", default=365, show_default=True, help="Validity in days.")
@_home_option
@_fail_cleanly
def ca_issue(subject: str, attrs: tuple[str, ...], days: int, home: str) -> None:
    """Issue a client certificate and signing key."""

    root = _home_path(home)
    attributes = {}
    for item in attrs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfidecError(f"bad --attr {item!r}, expected KEY=VALUE")
        attributes[key] = value
    client_key = SigningKeyPair.generate()
    now = utcnow()
    cert = issue_certificate(
        _load_authority_key(root),
        subject=subject,
        attributes=attributes,
        subject_verify_key=client_key.verify_key,
        not_before=now,
        not_after=now + timedelta(days=days),
    )
    d = root / "clients" / subject
    d.mkdir(parents=True, exist_ok=True)
    pem = d / "key.pem"
    pem.touch(mode=0o600)
    pem.write_bytes(client_key.private_pem())
    _write_json(d / "cert.json", certificate_to_obj(cert))
    click.echo(f"issued certificate for {subject!r} with {len(attributes)} attributes")


# -- units ---------------------------------------------------------------------

@cli.group()
def ccu() -> None:
    """Confidential compute units."""


@ccu.command("init")
@click.argument("name")
@_home_option
@_fail_cleanly
def ccu_init(name: str, home: str) -> None:
    """Create a unit identity certified by the authority."""

    root = _home_path(home)
    d = root / "units" / name
    if d.exists():
        raise ConfidecError(f"unit {name!r} already exists")
    authority = _load_authority_key(root)
    load_or_create_platform_secret(root / "platform_secret.bin")
    signing_key = SigningKeyPair.generate()
    now = utcnow()
    cert = issue_certificate(
        authority,
        subject=name,
        attributes={"Role": "CCU", "Unit": name},
        subject_verify_key=signing_key.verify_key,
        not_before=now,
        not_after=now + timedelta(days=365),
    )
    d.mkdir(parents=True)
    pem = d / "key.pem"
    pem.touch(mode=0o600)
    pem.write_bytes(signing_key.private_pem())
    _write_json(d / "cert.json", certificate_to_obj(cert))
    (d / "store").mkdir()
    click.echo(f"unit {name!r} initialized")


@ccu.command("deploy")
@click.argument("name")
@click.option("--policies", "policies_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Access policy source file.")
@click.option("--table", "table_paths", required=True, multiple=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Decision table JSON, repeatable.")
@click.option("--aggregations", "agg_path",
              type=click.Path(exists=True, dir_okay=False),
              help="Aggregation specs JSON (a list).")
@_home_option
@_fail_cleanly
def ccu_deploy(name: str, policies_path: str, table_paths: tuple[str, ...],
               agg_path: str | None, home: str) -> None:
    """Deploy a code bundle to a unit and print its measurement."""

    root = _home_path(home)
    d = _unit_dir(root, name)
    bundle = CodeBundle.assemble(
        Path(policies_path).read_text(),
        [_read_json(Path(p)) for p in table_paths],
        _read_json(Path(agg_path)) if agg_path else (),
    )
    unit = _load_unit(root, name)
    old_sealed = d / "sealed_seed.bin"
    measurement = unit.deploy(bundle)
    _write_json(d / "bundle.json", {
        "policyText": bundle.policy_text,
        "tablesJson": bundle.tables_json,
        "aggregationsJson": bundle.aggregations_json,
        "engineTag": bundle.engine_tag,
    })
    (d / "measurement.hex").write_text(measurement.hex() + "\n")
    if old_sealed.exists() and not unit.has_seed:
        # A seed sealed under another measurement cannot follow the new code.
        click.echo("warning: existing sealed seed no longer matches; issuing a fresh seed", err=True)
    if not unit.has_seed:
        unit.install_seed(generate_seed())
    _save_seed(root, unit)
    click.echo(measurement.hex())


@ccu.command("exchange-seed")
@click.argument("source")
@click.argument("target")
@_home_option
@_fail_cleanly
def ccu_exchange_seed(source: str, target: str, home: str) -> None:
    """Move the data seed between two attested units in this home."""

    root = _home_path(home)
    src = _load_unit(root, source)
    dst = _load_unit(root, target)
    exchange_seed(src, dst)
    _save_seed(root, src)
    _save_seed(root, dst)
    click.echo(f"seed moved from {source!r} to {target!r}")


# -- data path -------------------------------------------------------------------

@cli.command("provide")
@click.argument("data_name")
@click.argument("structure")
@click.argument("records_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--unit", required=True, help="Receiving unit name.")
@click.option("--client", required=True, help="Client credentials to use.")
@_home_option
@_fail_cleanly
def provide(data_name: str, structure: str, records_file: str, unit: str,
            client: str, home: str) -> None:
    """Provision a dataset; prints the storage receipt."""

    root = _home_path(home)
    ccu_obj = _load_unit(root, unit)
    session = _attested_session(root, client, ccu_obj)
    payload = {
        "dataName": data_name,
        "structure": structure,
        "records": _read_json(Path(records_file)),
    }
    envelope, key = session.build_request("provision", payload)
    receipt = session.open_response(_submit(ccu_obj, envelope), key)
    click.echo(json.dumps(receipt, indent=2, sort_keys=True))


@cli.command("decide")
@click.argument("func_name")
@click.argument("data_name")
@click.option("--unit", required=True, help="Unit to ask.")
@click.option("--client", required=True, help="Client credentials to use.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="Write the response JSON here instead of stdout.")
@_home_option
@_fail_cleanly
def decide(func_name: str, data_name: str, unit: str, client: str,
           out_path: str | None, home: str) -> None:
    """Run a guarded decision over a provisioned dataset."""

    root = _home_path(home)
    ccu_obj = _load_unit(root, unit)
    session = _attested_session(root, client, ccu_obj)
    envelope, key = session.build_request(
        "decision", {"funcName": func_name, "dataName": data_name}
    )
    result = session.open_response(_submit(ccu_obj, envelope), key)
    text = json.dumps(result, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text)


@cli.command("emit-audit")
@click.argument("func_name")
@click.option("--unit", required=True, help="Unit whose bundle to inspect.")
@_home_option
@_fail_cleanly
def emit_audit(func_name: str, unit: str, home: str) -> None:
    """Print the audit script of a deployed decision function."""

    service = _load_unit(_home_path(home), unit).service(func_name)
    click.echo(emit_audit_script(service.spec), nl=False)


@cli.command("verify-chain")
@click.option("--unit", required=True, help="Unit whose log to verify.")
@_home_option
@_fail_cleanly
def verify_chain(unit: str, home: str) -> None:
    """Check the notarization log; fails on the first broken entry."""

    store = StorageNode.at_directory(_unit_dir(_home_path(home), unit) / "store")
    bad = store.chain.verify_chain()
    if bad is not None:
        raise StorageError(f"chain breaks at sequence {bad}")
    click.echo(f"chain ok ({len(store.chain)} entries)")


# -- benchmarks -------------------------------------------------------------------

@cli.command("bench")
@click.option("--experiment", required=True, type=click.Choice(EXPERIMENTS))
@click.option("--records", default=4000, show_default=True)
@click.option("--columns", default=7, show_default=True)
@click.option("--rules", default=300, show_default=True)
@click.option("--seed", default=7, show_default=True)
@click.option("--repetitions", default=5, show_default=True)
@click.option("--out", "out_path", default="bench.csv", show_default=True,
              type=click.Path(dir_okay=False))
@_fail_cleanly
def bench(experiment: str, records: int, columns: int, rules: int, seed: int,
          repetitions: int, out_path: str) -> None:
    """Run one experiment and write its rows as CSV."""
    config = BenchConfig(
        experiment=experiment, records=records, columns=columns,
        rules=rules, seed=seed, repetitions=repetitions,
    )
    rows = run_benchmark(config)
    write_csv(rows, out_path)
    click.echo(f"# backend={kernel_backend()}")
    for row in rows:
        click.echo(",".join(str(v) for v in row.as_csv()))
    click.echo(f"wrote {len(rows)} rows to {out_path}")


main = cli

if __name__ == "__main__":
    main()
