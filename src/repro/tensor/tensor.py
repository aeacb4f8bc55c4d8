"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole library.  It
implements a :class:`Tensor` type that records a computation graph and a
functional :func:`grad` API.  Every backward rule is itself expressed with
``Tensor`` operations, so *higher-order* differentiation works: passing
``create_graph=True`` to :func:`grad` yields gradients that are themselves
differentiable.  MCond's gradient-matching objective (Eq. 4-5 of the paper)
relies on this to differentiate through the relay GNN's gradients.

Design notes
------------
- Data is stored as ``float64`` numpy arrays for numerical robustness; the
  library targets CPU-scale experiments where this is not a bottleneck.
- A node's backward rule is a closure over the *output* tensor's inputs.
  Closures are only attached while gradient recording is enabled (see
  :func:`no_grad`), so inference runs graph-free.
- Tensors are treated as immutable once used in a graph.  Optimizers update
  ``parameter.data`` in place *between* graph constructions, which is safe
  because each training step builds a fresh graph.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import AutogradError, ShapeError

__all__ = [
    "Tensor",
    "as_tensor",
    "grad",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "reshape",
    "power",
    "exp",
    "log",
    "sqrt",
    "relu",
    "sigmoid",
    "abs_",
    "tensor_sum",
    "tensor_mean",
    "sum_to",
    "gather_rows",
    "scatter_rows_add",
    "concat",
    "slice_rows",
    "dropout",
    "maximum_const",
]


class _GradState(threading.local):
    """Thread-local switch controlling whether graphs are recorded."""

    def __init__(self) -> None:
        super().__init__()
        self.enabled = True


_STATE = _GradState()


def is_grad_enabled() -> bool:
    """Return whether operations currently record a computation graph."""
    return _STATE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (like ``torch.no_grad``)."""
    previous = _STATE.enabled
    _STATE.enabled = False
    try:
        yield
    finally:
        _STATE.enabled = previous


@contextlib.contextmanager
def enable_grad():
    """Context manager re-enabling graph recording inside a ``no_grad``."""
    previous = _STATE.enabled
    _STATE.enabled = True
    try:
        yield
    finally:
        _STATE.enabled = previous


class Tensor:
    """A numpy-backed array participating in automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; converted to a ``float64`` numpy array.
    requires_grad:
        If ``True`` the tensor is a differentiation leaf: :func:`grad` can
        return gradients with respect to it and ``backward`` accumulates
        into its ``grad`` attribute.
    name:
        Optional human-readable label used in error messages.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_inputs",
                 "_backward", "_op_name")

    def __init__(self, data, requires_grad: bool = False,
                 name: str | None = None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Tensor | None = None
        self.name = name
        self._inputs: tuple[Tensor, ...] = ()
        self._backward: Callable[[Tensor], Sequence[Tensor | None]] | None = None
        self._op_name: str = "leaf"

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, op={self._op_name}{grad_flag}{label})"

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with copied data and the same grad flag."""
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        return out

    def zero_grad(self) -> None:
        """Clear the accumulated ``grad`` attribute."""
        self.grad = None

    # ------------------------------------------------------------------
    # Autograd
    # ------------------------------------------------------------------
    def backward(self, grad_output: "Tensor | np.ndarray | None" = None) -> None:
        """Accumulate gradients of ``self`` into every reachable leaf.

        ``grad_output`` defaults to ones for scalar outputs; non-scalar
        outputs require an explicit seed gradient.
        """
        grads = grad([self], _collect_leaves(self), grad_outputs=[grad_output],
                     create_graph=False, allow_unused=True)
        for leaf, g in zip(_collect_leaves(self), grads):
            if g is None:
                continue
            if leaf.grad is None:
                leaf.grad = g.detach()
            else:
                leaf.grad = Tensor(leaf.grad.data + g.data)

    # Operator overloads -------------------------------------------------
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` (scalar, array, or Tensor) into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _collect_leaves(root: Tensor) -> list[Tensor]:
    """Return all ``requires_grad`` leaves reachable from ``root``."""
    leaves: list[Tensor] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is None:
            if node.requires_grad:
                leaves.append(node)
        else:
            stack.extend(node._inputs)
    return leaves


def make_op(
    data: np.ndarray,
    inputs: tuple[Tensor, ...],
    backward: Callable[[Tensor], Sequence[Tensor | None]],
    op_name: str,
) -> Tensor:
    """Create an op-output tensor, recording the graph when enabled.

    ``backward`` maps the gradient flowing into the output to a sequence of
    gradients, one per input (``None`` for inputs that do not require grad).
    It must be written with ``Tensor`` operations so double-backward works.
    """
    requires = is_grad_enabled() and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._inputs = inputs
        out._backward = backward
        out._op_name = op_name
    return out


def _topo_order(roots: Iterable[Tensor]) -> list[Tensor]:
    """Topologically order the graph above ``roots`` (inputs before outputs)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    # Iterative post-order DFS: graphs can be thousands of nodes deep.
    stack: list[tuple[Tensor, bool]] = [(r, False) for r in roots]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._inputs:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def grad(
    outputs: Sequence[Tensor] | Tensor,
    inputs: Sequence[Tensor] | Tensor,
    grad_outputs: Sequence[Tensor | np.ndarray | None] | None = None,
    create_graph: bool = False,
    allow_unused: bool = False,
) -> list[Tensor | None]:
    """Compute gradients of ``outputs`` w.r.t. ``inputs``.

    Parameters
    ----------
    outputs:
        Tensors to differentiate.  Scalar outputs get an implicit seed of 1.
    inputs:
        Tensors to return gradients for.  They need not be leaves.
    grad_outputs:
        Optional seed gradients matching ``outputs``.
    create_graph:
        If ``True`` the returned gradients carry their own computation graph
        and can be differentiated again.
    allow_unused:
        If ``False`` an input unreachable from the outputs raises
        :class:`AutogradError`; otherwise its gradient is ``None``.
    """
    output_list = [outputs] if isinstance(outputs, Tensor) else list(outputs)
    input_list = [inputs] if isinstance(inputs, Tensor) else list(inputs)
    if not output_list:
        raise AutogradError("grad() requires at least one output tensor")
    if grad_outputs is None:
        grad_outputs = [None] * len(output_list)
    if len(grad_outputs) != len(output_list):
        raise AutogradError(
            f"expected {len(output_list)} grad_outputs, got {len(grad_outputs)}")

    table: dict[int, Tensor] = {}
    for out, seed in zip(output_list, grad_outputs):
        if seed is None:
            if out.data.size != 1:
                raise AutogradError(
                    "non-scalar output requires an explicit grad_output "
                    f"(shape {out.shape})")
            seed_t = Tensor(np.ones_like(out.data))
        else:
            seed_t = as_tensor(seed)
            if seed_t.shape != out.shape:
                raise ShapeError(
                    f"grad_output shape {seed_t.shape} does not match output "
                    f"shape {out.shape}")
        _accumulate(table, out, seed_t)

    order = _topo_order(output_list)
    grad_mode = enable_grad if create_graph else no_grad
    with grad_mode():
        for node in reversed(order):
            node_grad = table.get(id(node))
            if node_grad is None or node._backward is None:
                continue
            input_grads = node._backward(node_grad)
            if len(input_grads) != len(node._inputs):
                raise AutogradError(
                    f"op {node._op_name!r} returned {len(input_grads)} "
                    f"gradients for {len(node._inputs)} inputs")
            for parent, g in zip(node._inputs, input_grads):
                if g is None or not parent.requires_grad:
                    continue
                if g.shape != parent.shape:
                    raise ShapeError(
                        f"op {node._op_name!r} produced gradient of shape "
                        f"{g.shape} for input of shape {parent.shape}")
                _accumulate(table, parent, g)

    results: list[Tensor | None] = []
    for tensor in input_list:
        g = table.get(id(tensor))
        if g is None and not allow_unused:
            raise AutogradError(
                "an input tensor is not reachable from the outputs; pass "
                "allow_unused=True to receive None instead")
        results.append(g)
    return results


def _accumulate(table: dict[int, Tensor], node: Tensor, value: Tensor) -> None:
    existing = table.get(id(node))
    if existing is None:
        table[id(node)] = value
    else:
        table[id(node)] = add(existing, value)


# ----------------------------------------------------------------------
# Broadcasting helpers
# ----------------------------------------------------------------------

def sum_to(tensor: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce ``tensor`` by summation until it has ``shape``.

    This is the differentiable inverse of numpy broadcasting and is used by
    elementwise backward rules.
    """
    if tensor.shape == tuple(shape):
        return tensor
    ndim_diff = tensor.ndim - len(shape)
    if ndim_diff < 0:
        raise ShapeError(f"cannot sum_to from {tensor.shape} to {tuple(shape)}")
    out = tensor
    if ndim_diff > 0:
        out = tensor_sum(out, axis=tuple(range(ndim_diff)), keepdims=False)
    reduce_axes = tuple(
        i for i, dim in enumerate(shape) if dim == 1 and out.shape[i] != 1)
    if reduce_axes:
        out = tensor_sum(out, axis=reduce_axes, keepdims=True)
    if out.shape != tuple(shape):
        raise ShapeError(
            f"sum_to produced {out.shape}, expected {tuple(shape)}")
    return out


# ----------------------------------------------------------------------
# Primitive operations
# ----------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Tensor):
        ga = sum_to(g, a.shape) if a.requires_grad else None
        gb = sum_to(g, b.shape) if b.requires_grad else None
        return ga, gb

    return make_op(a.data + b.data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise subtraction with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Tensor):
        ga = sum_to(g, a.shape) if a.requires_grad else None
        gb = neg(sum_to(g, b.shape)) if b.requires_grad else None
        return ga, gb

    return make_op(a.data - b.data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise multiplication with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Tensor):
        ga = sum_to(mul(g, b), a.shape) if a.requires_grad else None
        gb = sum_to(mul(g, a), b.shape) if b.requires_grad else None
        return ga, gb

    return make_op(a.data * b.data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise division ``a / b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Tensor):
        ga = sum_to(div(g, b), a.shape) if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = sum_to(neg(div(mul(g, a), mul(b, b))), b.shape)
        return ga, gb

    return make_op(a.data / b.data, (a, b), backward, "div")


def neg(a: Tensor) -> Tensor:
    """Elementwise negation."""
    a = as_tensor(a)

    def backward(g: Tensor):
        return (neg(g),)

    return make_op(-a.data, (a,), backward, "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 1-D or 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim > 2 or b.ndim > 2:
        raise ShapeError(
            f"matmul supports tensors of rank <= 2, got {a.shape} @ {b.shape}")

    def backward(g: Tensor):
        if a.ndim == 1 and b.ndim == 1:
            # scalar output: g is (), grads are g*b and g*a.
            ga = mul(g, b) if a.requires_grad else None
            gb = mul(g, a) if b.requires_grad else None
            return ga, gb
        a2 = reshape(a, (1, -1)) if a.ndim == 1 else a
        b2 = reshape(b, (-1, 1)) if b.ndim == 1 else b
        g2 = g
        if a.ndim == 1:
            g2 = reshape(g2, (1, -1)) if b.ndim == 2 else g2
        if b.ndim == 1 and a.ndim == 2:
            g2 = reshape(g2, (-1, 1))
        ga = gb = None
        if a.requires_grad:
            ga = matmul(g2, transpose(b2))
            if a.ndim == 1:
                ga = reshape(ga, a.shape)
        if b.requires_grad:
            gb = matmul(transpose(a2), g2)
            if b.ndim == 1:
                gb = reshape(gb, b.shape)
        return ga, gb

    return make_op(a.data @ b.data, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    """Transpose a 2-D tensor (no-op on 1-D tensors)."""
    a = as_tensor(a)

    def backward(g: Tensor):
        return (transpose(g),)

    return make_op(a.data.T, (a,), backward, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reshape, preserving the element count."""
    a = as_tensor(a)
    original = a.shape

    def backward(g: Tensor):
        return (reshape(g, original),)

    return make_op(a.data.reshape(shape), (a,), backward, "reshape")


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = as_tensor(a)
    exponent = float(exponent)

    def backward(g: Tensor):
        return (mul(g, mul(Tensor(exponent), power(a, exponent - 1.0))),)

    return make_op(a.data ** exponent, (a,), backward, "power")


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g: Tensor):
        # Recompute exp(a) as a tensor op so double-backward differentiates it.
        return (mul(g, exp(a)),)

    return make_op(out_data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)

    def backward(g: Tensor):
        return (div(g, a),)

    return make_op(np.log(a.data), (a,), backward, "log")


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root."""
    return power(a, 0.5)


def relu(a: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    a = as_tensor(a)
    mask = (a.data > 0).astype(np.float64)

    def backward(g: Tensor):
        return (mul(g, Tensor(mask)),)

    return make_op(a.data * mask, (a,), backward, "relu")


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic sigmoid, computed in a numerically stable way."""
    a = as_tensor(a)
    out_data = _stable_sigmoid(a.data)

    def backward(g: Tensor):
        s = sigmoid(a)
        return (mul(g, mul(s, sub(Tensor(1.0), s))),)

    return make_op(out_data, (a,), backward, "sigmoid")


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def abs_(a: Tensor) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the origin)."""
    a = as_tensor(a)
    sign = np.sign(a.data)

    def backward(g: Tensor):
        return (mul(g, Tensor(sign)),)

    return make_op(np.abs(a.data), (a,), backward, "abs")


def tensor_sum(
    a: Tensor,
    axis: int | tuple[int, ...] | None = None,
    keepdims: bool = False,
) -> Tensor:
    """Summation over one or more axes."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    input_shape = a.shape

    if axis is None:
        axes: tuple[int, ...] = tuple(range(a.ndim))
    elif isinstance(axis, int):
        axes = (axis % a.ndim,)
    else:
        axes = tuple(ax % a.ndim for ax in axis)

    def backward(g: Tensor):
        g_expanded = g
        if not keepdims and axes:
            expanded_shape = list(input_shape)
            for ax in axes:
                expanded_shape[ax] = 1
            g_expanded = reshape(g, tuple(expanded_shape))
        ones = Tensor(np.ones(input_shape))
        return (mul(g_expanded, ones),)

    return make_op(out_data, (a,), backward, "sum")


def tensor_mean(
    a: Tensor,
    axis: int | tuple[int, ...] | None = None,
    keepdims: bool = False,
) -> Tensor:
    """Arithmetic mean over one or more axes."""
    a = as_tensor(a)
    total = tensor_sum(a, axis=axis, keepdims=keepdims)
    count = a.data.size / total.data.size
    return div(total, Tensor(float(count)))


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``a[indices]`` from a 2-D (or 1-D) tensor.

    Duplicate indices are allowed; the backward pass scatter-adds.
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows expects 1-D indices, got {idx.shape}")

    def backward(g: Tensor):
        return (scatter_rows_add(g, idx, a.shape),)

    return make_op(a.data[idx], (a,), backward, "gather_rows")


def scatter_rows_add(a: Tensor, indices: np.ndarray, shape: tuple[int, ...]) -> Tensor:
    """Scatter rows of ``a`` into a zero tensor of ``shape``, adding duplicates.

    Bit-for-bit ``np.add.at`` without ``ufunc.at``'s slow path.  With
    duplicate targets it is one product ``S @ a`` with a one-hot CSR
    selection matrix ``S`` whose row ``r`` lists, in source order (stable
    sort), every row of ``a`` scattered into ``r``, so each output row sums
    its sources in ``np.add.at``'s order starting from 0.  When every
    target is distinct (labeled-node losses) each sum is ``0 + a_k``,
    placed directly, which spares narrow rows the product's fixed cost;
    adding 0 also turns ``-0.0`` into ``+0.0``, as ``np.add.at`` does.
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    rows = shape[0]
    idx = np.where(idx < 0, idx + rows, idx)
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"scatter_rows_add index out of range for {rows} rows")
    counts = np.bincount(idx, minlength=rows)
    if np.all(counts <= 1):
        out_data = np.zeros(shape, dtype=np.float64)
        out_data[idx] = a.data + 0.0
    else:
        selection = sp.csr_matrix(
            (np.ones(idx.size), np.argsort(idx, kind="stable"),
             np.concatenate(([0], np.cumsum(counts)))),
            shape=(rows, idx.size))
        out_data = (selection @ a.data.reshape(idx.size, -1)).reshape(shape)

    def backward(g: Tensor):
        return (gather_rows(g, idx),)

    return make_op(out_data, (a,), backward, "scatter_rows_add")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    ts = tuple(as_tensor(t) for t in tensors)
    if not ts:
        raise ShapeError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Tensor):
        grads = []
        for i, t in enumerate(ts):
            if not t.requires_grad:
                grads.append(None)
                continue
            grads.append(narrow(g, axis, int(offsets[i]), int(sizes[i])))
        return tuple(grads)

    return make_op(out_data, ts, backward, "concat")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries along ``axis`` starting at ``start``."""
    a = as_tensor(a)
    index: list[slice] = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index_t = tuple(index)
    input_shape = a.shape

    def backward(g: Tensor):
        return (pad_slice(g, axis, start, input_shape),)

    return make_op(a.data[index_t], (a,), backward, "narrow")


def pad_slice(a: Tensor, axis: int, start: int, shape: tuple[int, ...]) -> Tensor:
    """Embed ``a`` into a zero tensor of ``shape`` at offset ``start``."""
    a = as_tensor(a)
    out_data = np.zeros(shape, dtype=np.float64)
    index: list[slice] = [slice(None)] * len(shape)
    index[axis] = slice(start, start + a.shape[axis])
    index_t = tuple(index)
    out_data[index_t] = a.data
    length = a.shape[axis]

    def backward(g: Tensor):
        return (narrow(g, axis, start, length),)

    return make_op(out_data, (a,), backward, "pad_slice")


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Row slice ``a[start:stop]`` of a 2-D tensor."""
    return narrow(a, 0, start, stop - start)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None = None,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` and rescale."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    a = as_tensor(a)
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(a.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return mul(a, Tensor(mask))


def maximum_const(a: Tensor, value: float) -> Tensor:
    """Elementwise ``max(a, value)`` against a scalar constant."""
    a = as_tensor(a)
    mask = (a.data > value).astype(np.float64)
    out_data = np.maximum(a.data, value)

    def backward(g: Tensor):
        return (mul(g, Tensor(mask)),)

    return make_op(out_data, (a,), backward, "maximum_const")
