"""End-to-end and per-layer benchmark of the cqdec command line (see README.md)."""
