"""Reference implementations the production code is checked against."""
