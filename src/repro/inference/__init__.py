"""Inductive inference: deployment engine and latency/memory accounting.

For the packaged offline→online flow (persistable bundles, cold-process
serving) see :mod:`repro.api`.
"""

from repro.inference.engine import InferenceReport, InductiveServer

__all__ = ["InferenceReport", "InductiveServer"]
