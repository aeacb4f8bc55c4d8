"""Small shared utilities: seeding, artifact paths."""

from repro.utils.artifacts import normalize_npz_path
from repro.utils.seeding import seed_everything, spawn_rngs

__all__ = ["seed_everything", "spawn_rngs", "normalize_npz_path"]
