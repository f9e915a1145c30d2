"""Benchmark data generators and the measurement harness."""
