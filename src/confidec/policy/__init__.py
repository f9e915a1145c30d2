"""Attribute-based access policies: parsing, printing, evaluation."""
