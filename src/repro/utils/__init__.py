"""Small shared utilities: artifact paths and the ``.npz`` archive reader."""

from repro.utils.artifacts import normalize_npz_path

__all__ = ["normalize_npz_path"]
