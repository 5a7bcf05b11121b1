"""Reverse-mode differentiation over float64 numpy arrays.

This is deliberately not a general autodiff: it covers exactly the
operations the trainable blocks need (matrix products, bias adds,
rectifier, sigmoid, row softmax, row L2 normalisation, layer norm,
log/pow/sum, concatenation and row gather). Every op builds a node
holding the forward value and a closure that accumulates gradients
into its parents. Calling ``backward()`` on a scalar walks the graph
in reverse topological order.

Leaf tensors double as parameters: after ``backward()``, ``grad``
holds dL/dvalue with the same shape as ``value``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "add",
    "mul",
    "matmul",
    "transpose",
    "relu",
    "sigmoid",
    "log",
    "pow_const",
    "sum_",
    "softmax_rows",
    "l2_normalize_rows",
    "l2_normalize_rows_or_zero",
    "layer_norm_rows",
    "concat_rows",
    "concat_cols",
    "take_rows",
    "take_cols",
]


class Tensor:
    """A float64 array plus gradient storage and a backward closure."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, _parents=(), _backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def item(self) -> float:
        return float(self.value)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Seed this scalar with gradient 1 and propagate to all ancestors."""
        if self.value.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar. Non-Tensor operands are wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other, dtype=np.float64))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("division only supported by plain scalars")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, k):
        return pow_const(self, k)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.value + b.value

    def bw(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(g, b.value.shape))

    return Tensor(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.value * b.value

    def bw(g):
        _accum(a, _unbroadcast(g * b.value, a.value.shape))
        _accum(b, _unbroadcast(g * a.value, b.value.shape))

    return Tensor(out, (a, b), bw)


def matmul(a, b) -> Tensor:
    """Matrix/vector product for the 2D@2D, 2D@1D, 1D@2D and 1D@1D cases."""
    a, b = _wrap(a), _wrap(b)
    out = a.value @ b.value
    an, bn = a.value.ndim, b.value.ndim

    def bw(g):
        if an == 2 and bn == 2:
            _accum(a, g @ b.value.T)
            _accum(b, a.value.T @ g)
        elif an == 2 and bn == 1:
            _accum(a, np.outer(g, b.value))
            _accum(b, a.value.T @ g)
        elif an == 1 and bn == 2:
            _accum(a, b.value @ g)
            _accum(b, np.outer(a.value, g))
        else:  # 1D @ 1D -> scalar
            _accum(a, g * b.value)
            _accum(b, g * a.value)

    return Tensor(out, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, g.T)

    return Tensor(a.value.T, (a,), bw)


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    mask = a.value > 0

    def bw(g):
        _accum(a, g * mask)

    return Tensor(a.value * mask, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    x = a.value
    # Split by sign so neither exp overflows.
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        _accum(a, g * s * (1.0 - s))

    return Tensor(s, (a,), bw)


def log(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, g / a.value)

    return Tensor(np.log(a.value), (a,), bw)


def pow_const(a: Tensor, k: float) -> Tensor:
    """a**k for a constant exponent k (a must stay in the domain of x^(k-1))."""
    a = _wrap(a)
    k = float(k)

    def bw(g):
        _accum(a, g * k * a.value ** (k - 1.0))

    return Tensor(a.value ** k, (a,), bw)


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    out = a.value.sum(axis=axis)

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.value.shape).copy())
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.value.shape).copy())

    return Tensor(out, (a,), bw)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2D tensor, computed with max subtraction."""
    a = _wrap(a)
    if a.value.ndim != 2:
        raise ValueError("softmax_rows expects a 2D tensor")
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        # dS = y * (g - sum_j g_j y_j) per row
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, y * (g - dot))

    return Tensor(y, (a,), bw)


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row (or a single vector) to unit L2 norm."""
    a = _wrap(a)
    if a.value.ndim == 1:
        n = np.linalg.norm(a.value)
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        y = a.value / n

        def bw(g):
            _accum(a, (g - y * (g @ y)) / n)

        return Tensor(y, (a,), bw)

    if np.any(np.linalg.norm(a.value, axis=1) == 0.0):
        raise ValueError("cannot normalize a zero row")
    return l2_normalize_rows_or_zero(a)


def l2_normalize_rows_or_zero(a: Tensor) -> Tensor:
    """Scale each row of a 2D tensor to unit L2 norm; zero rows stay zero.

    A zero row has no direction, so its output and its gradient are 0;
    `l2_normalize_rows` rejects it instead.
    """
    a = _wrap(a)
    n = np.linalg.norm(a.value, axis=1, keepdims=True)
    live = n != 0.0
    n = np.where(live, n, 1.0)
    y = a.value / n

    def bw(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, (g - y * dot) / n * live)

    return Tensor(y, (a,), bw)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize each row to zero mean / unit variance, then apply gain and bias."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    if x.value.ndim != 2:
        raise ValueError("layer_norm_rows expects a 2D tensor")
    mu = x.value.mean(axis=1, keepdims=True)
    xc = x.value - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = y * gain.value + bias.value

    def bw(g):
        _accum(gain, (g * y).sum(axis=0))
        _accum(bias, g.sum(axis=0))
        dy = g * gain.value
        m1 = dy.mean(axis=1, keepdims=True)
        m2 = (dy * y).mean(axis=1, keepdims=True)
        _accum(x, inv * (dy - m1 - y * m2))

    return Tensor(out, (x, gain, bias), bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    parts = [_wrap(p) for p in parts]
    sizes = [p.value.shape[0] for p in parts]
    out = np.concatenate([p.value for p in parts], axis=0)

    def bw(g):
        off = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[off:off + n])
            off += n

    return Tensor(out, tuple(parts), bw)


def concat_cols(parts: list[Tensor]) -> Tensor:
    parts = [_wrap(p) for p in parts]
    sizes = [p.value.shape[1] for p in parts]
    out = np.concatenate([p.value for p in parts], axis=1)

    def bw(g):
        off = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[:, off:off + n])
            off += n

    return Tensor(out, tuple(parts), bw)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows (2D) or entries (1D) by index; duplicates accumulate on backward."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    out = a.value[idx]

    def bw(g):
        acc = np.zeros_like(a.value)
        np.add.at(acc, idx, g)
        _accum(a, acc)

    return Tensor(out, (a,), bw)


def take_cols(a: Tensor, start: int, stop: int) -> Tensor:
    a = _wrap(a)
    out = a.value[:, start:stop]

    def bw(g):
        acc = np.zeros_like(a.value)
        acc[:, start:stop] = g
        _accum(a, acc)

    return Tensor(out, (a,), bw)
