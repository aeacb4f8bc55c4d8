"""Small shared utilities: seeding, artifact paths, benchmark reports."""

from repro.utils.artifacts import normalize_npz_path
from repro.utils.reports import write_benchmark_json
from repro.utils.seeding import seed_everything, spawn_rngs

__all__ = ["seed_everything", "spawn_rngs", "normalize_npz_path",
           "write_benchmark_json"]
