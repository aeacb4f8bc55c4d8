"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ShapeError(ReproError, ValueError):
    """An array or tensor has an incompatible shape."""


class GraphError(ReproError, ValueError):
    """A graph object is malformed or an operation received an invalid graph."""


class DatasetError(ReproError, ValueError):
    """A dataset name or configuration is invalid."""


class AutogradError(ReproError, RuntimeError):
    """Invalid use of the automatic differentiation engine."""


class CondensationError(ReproError, RuntimeError):
    """A graph reduction method received invalid inputs or failed to run."""


class InferenceError(ReproError, RuntimeError):
    """The inductive inference engine received inconsistent inputs."""


class ServingError(InferenceError):
    """The online serving runtime rejected a request or is misconfigured."""


class ConfigError(ReproError, ValueError):
    """An experiment configuration is invalid."""


class RegistryError(ConfigError):
    """A name is not in the table of its kind (reducers, models, …)."""


class ArtifactError(ReproError, RuntimeError):
    """A persisted artifact is missing, corrupt, or from an unknown format."""
