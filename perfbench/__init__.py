"""End-to-end and per-layer benchmark of the ``repro`` drivers (see README.md)."""
