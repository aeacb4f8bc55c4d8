"""String-keyed plugin registries for reducers, models, and datasets.

The facade (:mod:`repro.api`), the experiment pipeline, and the CLI all
resolve components through the registries defined here instead of
hard-coded ``if method == ...`` chains.  Each registry maps a lower-case
name to an entry carrying a factory plus optional metadata; components
self-register at import time with the ``@register_*`` decorators, so adding
a new reduction method (or GNN backbone, or dataset) is one decorated
definition — every consumer (``repro condense``, ``ExperimentContext``,
``repro list``) picks it up automatically.

Registration is strict: duplicate keys raise :class:`~repro.errors.RegistryError`
unless ``overwrite=True`` is passed — silently shadowing a method would
corrupt experiment provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Generic, Iterator, TypeVar

from repro.errors import RegistryError

__all__ = [
    "Registry",
    "ReducerEntry",
    "REDUCERS",
    "MODELS",
    "DATASETS",
    "register_reducer",
    "register_model",
    "register_dataset",
    "make_reducer",
]

T = TypeVar("T")


class Registry(Generic[T]):
    """A named string → entry mapping with decorator-style registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, entry: T, *, overwrite: bool = False) -> T:
        key = self._normalize(name)
        if not overwrite and key in self._entries:
            raise RegistryError(
                f"{self.kind} {key!r} is already registered; "
                "pass overwrite=True to replace it")
        self._entries[key] = entry
        return entry

    def unregister(self, name: str) -> T:
        """Remove and return an entry (plugin teardown, tests)."""
        key = self._normalize(name)
        if key not in self._entries:
            raise RegistryError(f"{self.kind} {key!r} is not registered")
        return self._entries.pop(key)

    def view(self):
        """A live, read-only mapping over the entries.

        Stays in sync with later registrations; writes raise ``TypeError``
        (register through the registry, not the view).
        """
        return MappingProxyType(self._entries)

    # ------------------------------------------------------------------
    def get(self, name: str) -> T:
        key = self._normalize(name)
        if key not in self._entries:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.keys())}")
        return self._entries[key]

    def __contains__(self, name: str) -> bool:
        return self._normalize(name) in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> list[tuple[str, T]]:
        return [(key, self._entries[key]) for key in self.keys()]

    @staticmethod
    def _normalize(name: str) -> str:
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"registry keys must be non-empty strings, got {name!r}")
        return name.lower()

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, keys={self.keys()})"


@dataclass(frozen=True)
class ReducerEntry:
    """A registered reduction method.

    ``factory(seed=..., **cfg)`` builds a ready-to-run
    :class:`~repro.condense.base.GraphReducer`.  ``profile_params`` names
    the :class:`~repro.experiments.settings.EffortProfile` fields the
    factory understands (e.g. ``outer_loops``) so the pipeline can inject
    compute budgets generically, without knowing the method.
    ``description`` feeds ``repro list``.
    """

    name: str
    factory: Callable[..., Any]
    profile_params: tuple[str, ...] = ()
    description: str = ""
    keeps_result: bool = False  # factory's reducer exposes ``last_result``


REDUCERS: Registry[ReducerEntry] = Registry("reduction method")
MODELS: Registry[type] = Registry("model architecture")
DATASETS: Registry[Any] = Registry("dataset")


def register_reducer(name: str, *, profile_params: tuple[str, ...] = (),
                     description: str = "", keeps_result: bool = False,
                     overwrite: bool = False):
    """Decorator registering a reducer factory under ``name``.

    The decorated callable must accept ``seed`` plus arbitrary config
    keyword arguments and return a ``GraphReducer``.
    """

    def wrap(factory):
        REDUCERS.register(
            name,
            ReducerEntry(name=name.lower(), factory=factory,
                         profile_params=tuple(profile_params),
                         description=description, keeps_result=keeps_result),
            overwrite=overwrite)
        return factory

    return wrap


def register_model(name: str, *, overwrite: bool = False):
    """Decorator registering a :class:`~repro.nn.models.GNNModel` subclass."""

    def wrap(cls):
        MODELS.register(name, cls, overwrite=overwrite)
        return cls

    return wrap


def register_dataset(name: str, *, overwrite: bool = False):
    """Decorator (or direct call) registering a dataset spec under ``name``."""

    def wrap(spec):
        DATASETS.register(name, spec, overwrite=overwrite)
        return spec

    return wrap


def make_reducer(method: str, seed: int = 0, **cfg):
    """Instantiate a registered reduction method.

    ``cfg`` is passed through to the factory; invalid options surface as
    the method's own config errors.
    """
    entry = REDUCERS.get(method)
    return entry.factory(seed=seed, **cfg)
