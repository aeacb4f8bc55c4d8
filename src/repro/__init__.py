"""MCond: mapping-aware graph condensation for inductive node representation learning.

A full reproduction of Gao et al., *Graph Condensation for Inductive Node
Representation Learning* (ICDE 2024), built from scratch on numpy/scipy.

**Start at :mod:`repro.api`** — the one-call facade over the whole
pipeline (``condense`` → ``deploy`` → ``serve``) and the persistable
:class:`~repro.api.DeploymentBundle` artifact.  Components resolve through
the string-keyed plugin registries in :mod:`repro.registry`
(``REDUCERS``, ``MODELS``, ``DATASETS``); registering a new method, GNN
backbone, or dataset makes it available to the facade, the experiment
harnesses, and the ``repro`` CLI at once.

Layers underneath the facade:

- :mod:`repro.tensor` — reverse-mode autodiff with higher-order gradients.
- :mod:`repro.graph` — graph containers, synthetic dataset simulators,
  inductive-node attachment (Eq. 3 / Eq. 11).
- :mod:`repro.nn` — GNN models (SGC, GCN, GraphSAGE, APPNP, Cheby) and
  optimizers.
- :mod:`repro.condense` — coreset baselines, VNG, GCond, and MCond itself.
- :mod:`repro.inference` — the four deployment settings (O→O, O→S, S→O,
  S→S) with latency/memory accounting.
- :mod:`repro.serving` — the online runtime: prepared-deployment cache,
  micro-batching scheduler, bounded queue, workload generators, replica
  fleet and network gateway.
- :mod:`repro.propagation` — label propagation and error propagation
  calibration.
- :mod:`repro.experiments` — the experiment grid regenerating every
  table and figure.

The ``repro`` command (``python -m repro``) exposes the same flow as
subcommands: ``repro condense``, ``repro serve``, ``repro eval``,
``repro list``, plus ``repro grid <preset>`` for the paper's tables and
figures.
"""

__version__ = "1.1.0"

from repro import errors

__all__ = ["errors", "api", "registry", "__version__"]


def __getattr__(name: str):
    # Lazy imports keep `import repro` light while making `repro.api` and
    # `repro.registry` available without an explicit submodule import.
    if name in ("api", "registry"):
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
