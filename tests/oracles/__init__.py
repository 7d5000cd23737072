"""Reference implementations that fast paths are tested against."""
