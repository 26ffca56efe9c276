"""Minimal reverse-mode automatic differentiation over dense f64 arrays.

A ``Tensor`` wraps a numpy float64 array together with the closures needed to
push gradients back to its parents.  Graphs are built fresh per evaluation
(tape style); recorded values are never mutated in place, and a node's
parents exist before it, so a tape holds no cycle.  ``backward`` walks it in
post-order and returns the gradients of a parameter dict, storing nothing on
any Tensor.  A gather's adjoint sums with one np.bincount, in gather order.
Reductions use numpy's fixed evaluation order, so re-running an identical
graph yields bit-identical results.

Scalars are Tensors of shape ``()``.  Only f64 is supported; mixed precision
would invalidate the tolerances the downstream estimators are tested at.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes cannot be combined."""

    def __init__(self, op: str, shape_a, shape_b):
        super().__init__(f"{op}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}")
        self.shapes = (tuple(shape_a), tuple(shape_b))


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        raise TypeError("expected raw array-like, got Tensor")
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _unbroadcast_product(shape: tuple, *operands: np.ndarray) -> np.ndarray:
    """`_unbroadcast` of the broadcast product of `operands`, in one einsum
    that never forms the full product."""
    ndim = max(op.ndim for op in operands)
    axes = "abcdefghijklmnopqrstuvwxyz"[:ndim]
    inputs = ",".join(axes[ndim - op.ndim:] for op in operands)
    kept = "".join(axes[ndim - len(shape) + i] for i, n in enumerate(shape) if n != 1)
    return np.einsum(f"{inputs}->{kept}", *operands).reshape(shape)


class Tensor:
    """Node in the differentiation graph: value and parent links."""

    __slots__ = ("value", "requires_grad", "_parents")

    def __init__(self, value, requires_grad: bool = False, parents=()):
        self.value = _as_array(value)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p, _ in parents)
        # parents: sequence of (Tensor, vjp) where vjp maps upstream grad -> parent grad
        self._parents = tuple((p, fn) for p, fn in parents if p.requires_grad)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def param(value) -> "Tensor":
        return Tensor(value, requires_grad=True)

    @staticmethod
    def const(value) -> "Tensor":
        return Tensor(value, requires_grad=False)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        val = _ew("add", self.value, other.value, np.add)
        return Tensor(val, parents=(
            (self, lambda g: _unbroadcast(g, self.value.shape)),
            (other, lambda g: _unbroadcast(g, other.value.shape)),
        ))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        val = _ew("subtract", self.value, other.value, np.subtract)
        return Tensor(val, parents=(
            (self, lambda g: _unbroadcast(g, self.value.shape)),
            (other, lambda g: _unbroadcast(-g, other.value.shape)),
        ))

    def __mul__(self, other):
        other = self._coerce(other)
        val = _ew("multiply", self.value, other.value, np.multiply)
        a, b = self.value, other.value
        return Tensor(val, parents=(
            (self, lambda g: _unbroadcast(g * b, a.shape)),
            (other, lambda g: _unbroadcast(g * a, b.shape)),
        ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        val = _ew("divide", self.value, other.value, np.divide)
        a, b = self.value, other.value
        return Tensor(val, parents=(
            (self, lambda g: _unbroadcast(g / b, a.shape)),
            (other, lambda g: _unbroadcast(-g * a / (b * b), b.shape)),
        ))

    def __neg__(self):
        return Tensor(-self.value, parents=((self, lambda g: -g),))

    # -- elementwise nonlinearities ---------------------------------------------

    def exp(self):
        out = np.exp(self.value)
        return Tensor(out, parents=((self, lambda g: g * out),))

    def log(self):
        val = self.value
        return Tensor(np.log(val), parents=((self, lambda g: g / val),))

    def tanh(self):
        out = np.tanh(self.value)
        return Tensor(out, parents=((self, lambda g: g * (1.0 - out * out)),))

    def floor_at(self, lo: float):
        """Elementwise maximum with a constant; gradient passes where above."""
        mask = (self.value > lo).astype(np.float64)
        return Tensor(np.maximum(self.value, lo), parents=((self, lambda g: g * mask),))

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.value.shape
        return Tensor(self.value.reshape(shape), parents=((self, lambda g: g.reshape(old)),))

    def __getitem__(self, idx):
        """Gather by a basic index or by integer indices over the leading axes;
        an entry gathered k times gets k times its gradient.  Any other index
        (a slice mixed with arrays, a boolean mask) raises IndexError."""
        if not _is_basic(idx):
            idx = tuple(map(np.asarray, idx if isinstance(idx, tuple) else (idx,)))
            if not all(p.dtype.kind in "iu" for p in idx):
                raise IndexError(f"a gather takes a basic index or integer indices over the "
                                 f"leading axes, got {idx!r}")
        shape = self.value.shape
        return Tensor(self.value[idx], parents=((self, lambda g: _scatter_add(shape, idx, g)),))

    # -- reductions ----------------------------------------------------------------

    def sum(self, axis=None):
        shape = self.value.shape

        def vjp(g):
            return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy()

        return Tensor(self.value.sum(axis=axis), parents=((self, vjp),))

    def mean(self, axis=None):
        n = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def logsumexp(self, axis: int = -1):
        """Stable log-sum-exp along one axis; gradient is the softmax."""
        if self.value.size == 0:
            raise ValueError("logsumexp of empty tensor")
        m = np.max(self.value, axis=axis, keepdims=True)
        shifted = (self - Tensor.const(m)).exp()
        return shifted.sum(axis=axis).log() + Tensor.const(np.squeeze(m, axis=axis))


def _is_basic(idx) -> bool:
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice)) for p in parts)


def _scatter_add(shape: tuple, idx, g: np.ndarray) -> np.ndarray:
    """Adjoint of `value[idx]` for a value of `shape`: zeros, plus g summed into place.

    A basic index never selects an entry twice, so it assigns.  Integer
    arrays over the k leading axes become one flat element index, each
    leading-axes position expanded over its trailing slab, and one
    np.bincount sums g over it in gather order.
    """
    if _is_basic(idx):
        out = np.zeros(shape)
        out[idx] = g
        return out
    k = len(idx)
    slab = math.prod(shape[k:])
    lead = np.ravel_multi_index(np.broadcast_arrays(*idx), shape[:k], mode="wrap")
    flat = (lead.reshape(-1, 1) * slab + np.arange(slab)).reshape(-1)
    return np.bincount(flat, weights=g.reshape(-1), minlength=math.prod(shape)).reshape(shape)


def _ew(op: str, a: np.ndarray, b: np.ndarray, fn) -> np.ndarray:
    try:
        return fn(a, b)
    except ValueError:
        raise ShapeMismatchError(op, a.shape, b.shape) from None


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along an axis; the gradient splits back to the parts."""
    vals = [t.value for t in tensors]
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        sl = [slice(None)] * vals[0].ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return Tensor(np.concatenate(vals, axis=axis),
                  parents=tuple((t, make_vjp(i)) for i, t in enumerate(tensors)))


def affine(x: Tensor | np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise linear map ``x @ w + b``; accepts a constant batch for x.

    One graph node that adds the bias into the product in place, so a
    layer allocates one activation array instead of two.
    """
    if not isinstance(x, Tensor):
        x = Tensor.const(x)
    xv, wv = x.value, w.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ShapeMismatchError("matmul", xv.shape, wv.shape)
    out = xv @ wv
    out += b.value
    return Tensor(out, parents=(
        (x, lambda g: g @ wv.T),
        (w, lambda g: xv.T @ g),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    ))


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss, keyed like `params`.

    A reverse sweep visits each node exactly once, in reverse topological
    order.  Returns one array per entry of `params`, zeros for a parameter
    the loss does not depend on; nothing is stored on any Tensor.
    """
    if loss.value.ndim != 0:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")

    # post-order: a node is emitted after all of its parents
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p, _ in reversed(node._parents))

    # a leaf has no parents to pass its gradient to, so it keeps it in `grads`
    grads: dict[int, np.ndarray] = {id(loss): np.asarray(1.0)}
    for node in reversed(order):
        if not node._parents or id(node) not in grads:
            continue
        g = grads.pop(id(node))
        for parent, vjp in node._parents:
            pg = vjp(g)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    return {key: grads[id(p)] if id(p) in grads else np.zeros_like(p.value) for key, p in params.items()}

