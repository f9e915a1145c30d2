"""Decision tables: parsing, condition evaluation, batch decisions."""
