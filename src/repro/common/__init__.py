"""Shared infrastructure: configuration, statistics, RNG streams, units."""
