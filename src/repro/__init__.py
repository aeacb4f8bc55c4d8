"""MCond: mapping-aware graph condensation for inductive node representation learning.

A full reproduction of Gao et al., *Graph Condensation for Inductive Node
Representation Learning* (ICDE 2024), built from scratch on numpy/scipy.

**Start at :mod:`repro.api`** — the one-call facade over the whole
pipeline (``condense`` → ``deploy`` → ``serve``) and the persistable
:class:`~repro.api.DeploymentBundle` artifact.  Components resolve by name
through one plain table each — :data:`repro.condense.REDUCERS`,
:data:`repro.nn.models.MODELS`, :data:`repro.graph.datasets.DATASET_SPECS`
— shared by the facade, the experiment harnesses, and the ``repro`` CLI.

Layers underneath the facade:

- :mod:`repro.tensor` — reverse-mode autodiff with higher-order gradients.
- :mod:`repro.graph` — graph containers, synthetic dataset simulators,
  inductive-node attachment (Eq. 3 / Eq. 11).
- :mod:`repro.nn` — GNN models (SGC, GCN, GraphSAGE, APPNP, Cheby) and the
  Adam optimizer.
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

__all__ = ["errors", "api", "__version__"]


def __getattr__(name: str):
    # A lazy import keeps `import repro` light while making `repro.api`
    # available without an explicit submodule import.
    if name == "api":
        import importlib

        return importlib.import_module("repro.api")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
