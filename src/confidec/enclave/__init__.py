"""Simulated trusted compute unit: measurement, sealing, attestation."""

from confidec.enclave.measurement import CodeBundle, compute_measurement
from confidec.enclave.sealing import load_or_create_platform_secret, seal, unseal
from confidec.enclave.attestation import (
    AttestationReport,
    ChannelCertificate,
    Evidence,
    generate_report,
    issue_channel_certificate,
    verify_ccu,
)
from confidec.enclave.ccu import Ccu, exchange_seed, generate_seed

__all__ = [
    "CodeBundle",
    "compute_measurement",
    "load_or_create_platform_secret",
    "seal",
    "unseal",
    "AttestationReport",
    "ChannelCertificate",
    "Evidence",
    "generate_report",
    "issue_channel_certificate",
    "verify_ccu",
    "Ccu",
    "exchange_seed",
    "generate_seed",
]
