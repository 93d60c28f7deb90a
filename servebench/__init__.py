"""Client-view serving benchmark with per-layer attribution.

Run from the repository root::

    python3 -m servebench --workload mvm-k1 --seed 1 --seconds 20 --trace 0

Each run builds a fresh :mod:`repro.store` from seeded synthetic data,
launches ``python -m repro serve <store> --store --mmap --port 0`` as a
separate process, drives it closed-loop over HTTP, checks every answer
against a dense NumPy reference, and prints every metric by name and
unit.  ``--trace 1`` adds an in-process, single-threaded replay of the
same request sequence with the benchmark's own spans and prints the
per-layer table.  See ``servebench/README.md`` for the workloads and
the metric definitions.
"""
