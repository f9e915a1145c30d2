"""Signatures, key agreement, key derivation, authenticated encryption."""
