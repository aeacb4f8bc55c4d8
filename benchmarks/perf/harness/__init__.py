"""The repo's performance benchmark: specs, child phases, statistics, spans.

``benchmarks/perf/run.py`` is the entry point; see ``benchmarks/perf/README.md``.
"""
