"""Reference implementations that exist only to pin equivalence."""
