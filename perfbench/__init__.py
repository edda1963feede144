"""Benchmark of the mapper: see README.md."""
