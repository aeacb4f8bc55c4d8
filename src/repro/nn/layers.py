"""Neural layers and the propagation operator abstraction.

Every GNN layer receives a *propagation operator* — either a constant scipy
sparse matrix (deployment on the original graph) or a dense differentiable
:class:`Tensor` (the learnable synthetic adjacency during condensation).
:func:`propagate` dispatches between the two, which is what lets one model
implementation serve both the O→· and S→· settings of the paper.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor, add, as_tensor, concat, matmul

__all__ = ["propagate", "Linear", "GCNConv", "SAGEConv", "ChebConv",
           "APPNPPropagate"]


def propagate(operator, h: Tensor) -> Tensor:
    """Apply a propagation operator to node representations.

    ``operator`` may be a scipy sparse matrix (constant), a dense numpy
    array (constant), or a :class:`Tensor` (differentiable).
    """
    if sp.issparse(operator):
        return spmm(operator, h)
    if isinstance(operator, Tensor):
        return matmul(operator, h)
    return matmul(Tensor(np.asarray(operator, dtype=np.float64)), h)


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(
                f"Linear dims must be positive, got ({in_features}, {out_features})")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng),
                                name="weight")
        self.bias: Parameter | None = None
        if bias:
            self.bias = Parameter(zeros((out_features,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        out = matmul(as_tensor(x), self.weight)
        if self.bias is not None:
            out = add(out, self.bias)
        return out

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class GCNConv(Module):
    """Graph convolution of Eq. (1): ``H' = act(Â H W)``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, rng, bias=bias)

    def forward(self, operator, h: Tensor) -> Tensor:
        return self.linear(propagate(operator, as_tensor(h)))

    def __call__(self, operator, h: Tensor) -> Tensor:
        return self.forward(operator, h)


class SAGEConv(Module):
    """GraphSAGE convolution: ``H' = [H, Â H] W`` (concat aggregator)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.linear = Linear(2 * in_features, out_features, rng, bias=bias)

    def forward(self, operator, h: Tensor) -> Tensor:
        h = as_tensor(h)
        neighbor = propagate(operator, h)
        return self.linear(concat([h, neighbor], axis=1))

    def __call__(self, operator, h: Tensor) -> Tensor:
        return self.forward(operator, h)


class ChebConv(Module):
    """Chebyshev spectral convolution of order ``K``.

    Uses the recursion ``T_0 = H``, ``T_1 = P H``, ``T_k = 2 P T_{k-1} -
    T_{k-2}`` on the supplied propagation operator ``P`` and learns one
    weight matrix per order.  With ``P`` the normalized adjacency this is
    the standard shifted Chebyshev basis (lambda_max ≈ 2 convention).
    """

    def __init__(self, in_features: int, out_features: int, order: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        if order < 1:
            raise ShapeError(f"Chebyshev order must be >= 1, got {order}")
        self.order = order
        for k in range(order):
            setattr(self, f"theta_{k}",
                    Linear(in_features, out_features, rng, bias=bias and k == 0))

    def forward(self, operator, h: Tensor) -> Tensor:
        h = as_tensor(h)
        basis_prev = h
        out = getattr(self, "theta_0")(basis_prev)
        if self.order == 1:
            return out
        basis_curr = propagate(operator, h)
        out = add(out, getattr(self, "theta_1")(basis_curr))
        for k in range(2, self.order):
            basis_next = Tensor(2.0) * propagate(operator, basis_curr) - basis_prev
            basis_prev, basis_curr = basis_curr, basis_next
            out = add(out, getattr(self, f"theta_{k}")(basis_curr))
        return out

    def __call__(self, operator, h: Tensor) -> Tensor:
        return self.forward(operator, h)


class APPNPPropagate(Module):
    """APPNP's personalized-PageRank propagation (no parameters).

    ``Z_{k+1} = (1 - alpha) P Z_k + alpha Z_0`` for ``k_hops`` steps.
    """

    def __init__(self, k_hops: int, alpha: float) -> None:
        super().__init__()
        if k_hops < 1:
            raise ShapeError(f"k_hops must be >= 1, got {k_hops}")
        if not 0.0 < alpha < 1.0:
            raise ShapeError(f"alpha must be in (0, 1), got {alpha}")
        self.k_hops = k_hops
        self.alpha = alpha

    def forward(self, operator, h: Tensor) -> Tensor:
        h = as_tensor(h)
        z = h
        for _ in range(self.k_hops):
            z = (Tensor(1.0 - self.alpha) * propagate(operator, z)
                 + Tensor(self.alpha) * h)
        return z

    def __call__(self, operator, h: Tensor) -> Tensor:
        return self.forward(operator, h)
