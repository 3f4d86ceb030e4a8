"""End-to-end benchmark over a real ``repro serve``.

``run.py`` is the entry point; ``compare.py`` compares two sets of runs
against the bounds in the repository's ``BENCHMARK.json``.  See
``README.md`` in this directory for the workloads and metrics.
"""
