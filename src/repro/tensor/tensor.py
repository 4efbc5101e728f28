"""A reverse-mode automatic-differentiation engine over NumPy arrays.

This is the compute substrate standing in for PyTorch in the AERIS
reproduction.  It provides exactly the operator set the AERIS architecture
needs (dense matmul, reshaping/permutation, windowed gather via slicing and
rolls, softmax attention, SwiGLU/RMSNorm elementwise math and reductions),
instrumented so that:

* every matmul reports its FLOPs to :mod:`repro.tensor.flops`, validating the
  paper's analytical performance model, and
* matmuls can run in emulated BF16 (:mod:`repro.tensor.bf16`), reproducing the
  paper's mixed-precision split.

Design notes
------------
Gradients are accumulated by a topological-order sweep (`Tensor.backward`).
All arithmetic supports NumPy broadcasting; backward passes un-broadcast by
summing over expanded axes.  Data is kept in FP32 unless a caller opts in to
FP64 explicitly (useful in gradient-check tests).
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

from ..scoped import scoped
from .bf16 import bf16_matmul_enabled, round_bf16
from .flops import add_flops, backward_phase, flops_enabled

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = ContextVar("grad_enabled", default=True)
_FLOAT32 = np.dtype(np.float32)


def no_grad():
    """Disable graph construction within the block (inference mode)."""
    return scoped(_GRAD_ENABLED, False)


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw array-like, got Tensor")
    arr = np.asarray(value)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype == np.float64:
        return arr.astype(np.float32)
    if not np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were expanded from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _consumed(_grad):
    """The ``_backward`` of a node a sweep has been through and released."""
    raise RuntimeError("graph already consumed by backward()")


class Tensor:
    """An n-dimensional array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; floats are stored as FP32 unless ``dtype`` says
        otherwise.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str = ""):
        # The common case — an ndarray already of the dtype it is to be
        # stored in — is kept as is; everything else is converted.
        if type(data) is np.ndarray and data.dtype is (
                _FLOAT32 if dtype is None else dtype):
            self.data = data
        else:
            self.data = _as_array(data, dtype)
        self.requires_grad = _GRAD_ENABLED.get() and bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- basic introspection ------------------------------------------------
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
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad})"

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction ---------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        if type(data) is not np.ndarray:    # a reduction to a NumPy scalar
            data = np.asarray(data)
        out = Tensor(data, dtype=data.dtype)
        if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (the tensor must then be a scalar to make
        mathematical sense, but any shape is accepted).

        The tape keeps only what a leaf's gradient needs: ``.grad`` is
        accumulated on leaves alone, closures return ``None`` for a parent
        that takes no gradient, and a node's closure and parents are dropped
        the moment it has been swept — so saved activations die during the
        sweep, and the graph can be swept once.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        grads: dict[int, np.ndarray] = {id(self): grad}
        # Buffers this sweep allocated itself (first fan-in sum per node);
        # later fan-in contributions accumulate into them in place instead
        # of allocating a fresh array per consumer.  Arrays handed back by
        # backward closures are never mutated — they may alias node grads.
        # Contributions are added in sweep order, left to right over a
        # node's parents: that association is part of the numerics.
        owned: set[int] = set()
        with backward_phase():
            while topo:
                node = topo.pop()
                node_grad = grads.pop(id(node), None)
                if node_grad is None:
                    continue
                if node._backward is None:      # a leaf: the only `.grad`s
                    if node.requires_grad and node.grad is None:
                        node.grad = np.array(
                            node_grad, dtype=node.data.dtype, copy=True)
                    elif node.requires_grad:
                        node.grad += node_grad
                    continue
                parents, parent_grads = node._parents, node._backward(
                    node_grad)
                node._backward, node._parents = _consumed, ()
                for parent, pgrad in zip(parents, parent_grads):
                    if pgrad is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    if type(pgrad) is tuple:
                        # (index, g): the gradient of `parent.data[index]`
                        # alone, added into a buffer of zeros this sweep owns.
                        index, part = pgrad
                        if key in owned:
                            grads[key][index] += part
                            continue
                        pgrad = np.zeros(parent.shape, dtype=part.dtype)
                        pgrad[index] += part
                        if key not in grads:
                            owned.add(key)
                    if key not in grads:
                        grads[key] = pgrad
                    elif (key in owned and grads[key].shape == pgrad.shape
                          and grads[key].dtype == np.result_type(
                              grads[key], pgrad)):
                        np.add(grads[key], pgrad, out=grads[key])
                    else:
                        grads[key] = grads[key] + pgrad
                        owned.add(key)

    # -- arithmetic -------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = Tensor._coerce(other)
        data = self.data + other.data
        def backward(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)
        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other)
        data = self.data - other.data
        def backward(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(-g, other.shape) if other.requires_grad else None)
        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other):
        return Tensor._coerce(other).__sub__(self)

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __mul__(self, other):
        other = Tensor._coerce(other)
        data = self.data * other.data
        def backward(g):
            return (_unbroadcast(g * other.data, self.shape)
                    if self.requires_grad else None,
                    _unbroadcast(g * self.data, other.shape)
                    if other.requires_grad else None)
        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        data = self.data / other.data
        def backward(g):
            return (_unbroadcast(g / other.data, self.shape)
                    if self.requires_grad else None,
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape)
                    if other.requires_grad else None)
        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float):
        if isinstance(exponent, Tensor):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent
        def backward(g):
            return (g * exponent * self.data ** (exponent - 1),)
        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        if bf16_matmul_enabled():
            a, b = round_bf16(a), round_bf16(b)
        data = a @ b
        if flops_enabled():
            # 2*m*k*n per output batch element (multiply + add).
            k = a.shape[-1]
            add_flops(2 * data.size * k)
        def backward(g):
            if bf16_matmul_enabled():
                gq = round_bf16(g)
            else:
                gq = g
            if flops_enabled():
                k = a.shape[-1]
                add_flops(4 * g.size * k if a.ndim > 1 and b.ndim > 1 else 2 * g.size * k)
            ga = gb = None
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.outer(gq, b) if a.ndim > 1 else gq * b
                else:
                    ga = gq @ np.swapaxes(b, -1, -2)
                ga = _unbroadcast(ga, self.shape)
            if other.requires_grad:
                if b.ndim == 1:
                    gb = (a.reshape(-1, a.shape[-1]).T @ gq.reshape(-1)) \
                        if a.ndim > 1 else a * gq
                elif a.ndim == 1:
                    gb = np.outer(a, gq)
                else:
                    gb = np.swapaxes(a, -1, -2) @ gq
                gb = _unbroadcast(gb, other.shape)
            return (ga, gb)
        return Tensor._make(data, (self, other), backward)

    # -- elementwise functions ------------------------------------------
    def log(self):
        return Tensor._make(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sin(self):
        return Tensor._make(np.sin(self.data), (self,), lambda g: (g * np.cos(self.data),))

    def cos(self):
        return Tensor._make(np.cos(self.data), (self,), lambda g: (-g * np.sin(self.data),))

    def silu(self):
        """SiLU/swish activation, the gate of SwiGLU."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        data = self.data * sig
        def backward(g):
            return (g * sig * (1.0 + self.data * (1.0 - sig)),)
        return Tensor._make(data, (self,), backward)

    def clip(self, low: float | None, high: float | None):
        data = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)
        return Tensor._make(data, (self,), lambda g: (g * mask,))

    # -- reductions --------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape, nd = self.shape, self.ndim
        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(a % nd for a in axes)
            if not keepdims:
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            return (np.broadcast_to(g, shape).copy(),)
        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.shape[a % self.ndim]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False):
        """Maximum reduction; gradient flows to (all) argmax positions equally."""
        data = self.data.max(axis=axis, keepdims=keepdims)
        def backward(g):
            expanded = data if keepdims or axis is None else np.expand_dims(
                data, axis if isinstance(axis, int) else tuple(axis))
            gexp = g if keepdims or axis is None else np.expand_dims(
                g, axis if isinstance(axis, int) else tuple(axis))
            mask = (self.data == expanded).astype(self.data.dtype)
            counts = mask.sum(axis=axis, keepdims=True)
            return (mask / counts * gexp,)
        return Tensor._make(data, (self,), backward)

    # -- shape manipulation ----------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)
        return Tensor._make(data, (self,), lambda g: (g.reshape(original),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)
        return Tensor._make(data, (self,), lambda g: (g.transpose(inverse),))

    def swapaxes(self, a: int, b: int):
        data = self.data.swapaxes(a, b)
        return Tensor._make(data, (self,), lambda g: (g.swapaxes(a, b),))

    def roll(self, shift, axis):
        """Circular shift; used for Swin's window shifting on the periodic
        longitude axis."""
        data = np.roll(self.data, shift, axis=axis)
        def backward(g):
            if isinstance(shift, tuple):
                back = tuple(-s for s in shift)
            else:
                back = -shift
            return (np.roll(g, back, axis=axis),)
        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index):
        data = self.data[index]
        items = index if isinstance(index, tuple) else (index,)
        if all(type(i) in (int, slice, type(Ellipsis), type(None))
               for i in items):
            # Basic indexing selects every element at most once: the sweep
            # adds ``g`` into that part of this tensor's gradient, the same
            # `0 + g` per element a zero-padded copy would carry.
            return Tensor._make(data, (self,), lambda g: ((index, g),))
        shape = self.shape
        def backward(g):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, index, g)
            return (full,)
        return Tensor._make(data, (self,), backward)

    # -- composite ops used by attention -----------------------------------
    def softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=axis, keepdims=True)
        def backward(g):
            dot = (g * out).sum(axis=axis, keepdims=True)
            return ((g - dot) * out,)
        return Tensor._make(out, (self,), backward)

    # -- comparison helpers (no grad) ---------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other


# -- module-level constructors and free functions ------------------------

def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    def backward(g):
        grads = []
        for i, t in enumerate(tensors):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(idx)] if t.requires_grad else None)
        return tuple(grads)
    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    def backward(g):
        return tuple(np.take(g, i, axis=axis) if t.requires_grad else None
                     for i, t in enumerate(tensors))
    return Tensor._make(data, tensors, backward)

