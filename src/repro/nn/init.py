"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = ["glorot_uniform", "zeros", "uniform"]


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) < 2:
        raise ShapeError(f"glorot initialization needs >= 2 dims, got {shape}")
    fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)


def uniform(shape: tuple[int, ...], rng: np.random.Generator,
            low: float = -0.05, high: float = 0.05) -> np.ndarray:
    """Plain uniform initialization."""
    return rng.uniform(low, high, size=shape)
