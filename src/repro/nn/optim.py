"""The Adam optimizer over an explicit parameter list.

Optimizers read each parameter's accumulated ``.grad`` and update
``.data`` in place; this happens strictly between graph constructions,
which keeps the autodiff engine's immutability contract.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.nn.module import Parameter
from repro.tensor.tensor import Tensor

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters: Sequence[Parameter], lr: float,
                 weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ConfigError(f"weight decay must be >= 0, got {weight_decay}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigError("optimizer received an empty parameter list")
        self.lr = lr
        self.weight_decay = weight_decay

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def _effective_grad(self, param: Parameter) -> np.ndarray | None:
        if param.grad is None:
            return None
        g = param.grad.data
        if self.weight_decay:
            g = g + self.weight_decay * param.data
        return g

    def step(self) -> None:
        raise NotImplementedError

    def apply_grads(self, grads: Sequence[Tensor | None]) -> None:
        """Set ``.grad`` from an external list (functional-grad workflows)."""
        if len(grads) != len(self.parameters):
            raise ConfigError(
                f"got {len(grads)} gradients for {len(self.parameters)} parameters")
        for param, g in zip(self.parameters, grads):
            param.grad = None if g is None else g.detach()


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr, weight_decay)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._step_count = 0
        self._first: dict[int, np.ndarray] = {}
        self._second: dict[int, np.ndarray] = {}
        self._buffers: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param in self.parameters:
            g = self._effective_grad(param)
            if g is None:
                continue
            key = id(param)
            if key not in self._first:
                self._first[key] = np.zeros_like(param.data)
                self._second[key] = np.zeros_like(param.data)
                self._buffers[key] = (np.empty_like(param.data),
                                      np.empty_like(param.data))
            m, v = self._first[key], self._second[key]
            update, work = self._buffers[key]
            # In place, in the order of m = b1*m + (1-b1)*g etc., so the
            # arithmetic (hence every trajectory) is unchanged.
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=work)
            m += work
            v *= self.beta2
            np.multiply(g, g, out=work)
            work *= 1.0 - self.beta2
            v += work
            np.divide(v, bias2, out=work)
            np.sqrt(work, out=work)
            work += self.eps
            np.divide(m, bias1, out=update)
            update /= work
            update *= self.lr
            param.data -= update
