"""Shared benchmark fixtures.

All benchmark files share one :class:`ExperimentContext` per dataset so
condensation and model training happen once per session regardless of how
many tables/figures are regenerated.  Effort is controlled by the
``REPRO_EFFORT`` environment variable (quick | full).
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentContext, current_profile, prepare_dataset

DATASETS = ("pubmed-sim", "flickr-sim", "reddit-sim")


@pytest.fixture(scope="session")
def contexts() -> dict[str, ExperimentContext]:
    """Lazily-populated per-dataset experiment contexts."""
    cache: dict[str, ExperimentContext] = {}

    class _Lazy(dict):
        def __missing__(self, name: str) -> ExperimentContext:
            profile = current_profile()
            context = ExperimentContext(prepare_dataset(name, seed=0), profile)
            self[name] = context
            return context

    return _Lazy(cache)


def pytest_report_header(config):
    profile = current_profile()
    return (f"[repro benchmarks] effort profile: {profile.name} "
            f"(seeds={profile.seeds})")
