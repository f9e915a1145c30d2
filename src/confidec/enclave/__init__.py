"""Simulated trusted compute unit: measurement, sealing, attestation."""
