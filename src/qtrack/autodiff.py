"""Reverse-mode differentiation over float64 numpy arrays.

This is deliberately not a general autodiff: it covers exactly the
operations the trainable blocks need (products of a matrix with a
matrix or a vector, bias adds, rectifier, sigmoid, row softmax, row L2
normalisation, layer norm, log/pow/sum, concatenation and row gather),
and only in the shapes they reach. Every op builds a node holding the
forward value and a closure that accumulates gradients into its
parents. Calling ``backward()`` on a scalar walks the graph
in reverse topological order and consumes it: each node is released
(no gradient, closure or parents; its value stays) as soon as its
closure has run, so reference counting frees the tape as the walk goes
and backward never holds much more than the forward left live.

Leaf tensors double as parameters: after ``backward()``, ``grad``
holds dL/dvalue with the same shape as ``value``. Only leaves keep
``grad``.

The blocks in ``matcher`` call these ops by name on tensors, and so
record the graph that training differentiates; products, sums, scaling
and transposes are ``@``, ``+``, ``*`` and ``.T``. Where an op's
forward is plain arithmetic (rectifier, row softmax, unit rows, layer
norm), it computes its value with a plain-array function below.
Tracking runs ``matcher.PackedMatcher``, which calls these same
functions on plain copies of the weights, so the two agree bit for bit
by construction.

The plain-array functions run on a few rows per tracked frame, where
the cost is numpy's per-call overhead, not arithmetic. So they call the
ufunc reductions (``np.add.reduce``, ``np.maximum.reduce``) in place of
the ``.sum`` / ``.max`` wrappers, take the cheaper of two calls that
give the same bits (the rectifier as ``copysign(maximum(h, 0), h)``;
no masked assignment when no row norm is zero), and do their arithmetic
in place, by one rule: a function writes in place only into arrays it
allocated itself, never into its arguments. The tape keeps the
intermediates they return for its backward pass, so a function does not
modify an array once it has returned it.

Training's cost is mostly per-node bookkeeping, not arithmetic, so the
tape records as few nodes as the gradients' bits allow. A linear layer
is one ``linear`` node, not a product node and a bias node; a
whole-width column slice (every slice of one-head attention) records
nothing. Constants (queries, masks, wrapped scalars) stay on the tape
and receive gradients no one reads: skipping them saved no measurable
time.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "add",
    "mul",
    "matmul",
    "linear",
    "transpose",
    "relu",
    "sigmoid",
    "log",
    "pow_const",
    "sum_",
    "softmax_rows",
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
    def T(self):
        return transpose(self)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Seed this scalar with gradient 1 and propagate to all ancestors, consuming the graph.

        Each node with a closure is released once that closure has run
        (no ``grad``, closure or parents; its ``value`` stays), so only
        leaves keep ``grad`` and the tape is freed as the walk goes.
        """
        if self.value.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None
                node._parents = ()

    # Operator sugar. Non-Tensor operands are wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _topo_order(root: Tensor) -> list[Tensor]:
    # a Tensor hashes by identity, so the set holds the nodes themselves
    order: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in visited:
                stack.append((parent, False))
    return order


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # `0.0 + g` in `value`'s layout: the bits, signed zeros and
        # strides of `zeros_like(value) + g`, without the zero fill
        t.grad = np.add(g, 0.0, out=np.empty_like(t.value))
    else:
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
    """Product of a 2D tensor with a 2D tensor or a vector."""
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2:
        raise ValueError("matmul expects a 2D left operand")
    out = a.value @ b.value

    def bw(g):
        _accum(a, g @ b.value.T if b.value.ndim == 2 else np.outer(g, b.value))
        _accum(b, a.value.T @ g)

    return Tensor(out, (a, b), bw)


def linear(x, w, b) -> Tensor:
    """x @ w + b for 2D x as one node; its gradients are those of `matmul` then `add`."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.value.ndim != 2:
        raise ValueError("linear expects a 2D tensor")

    def bw(g):
        g = g + 0.0  # the product's gradient as `add` accumulated it
        _accum(x, g @ w.value.T)
        _accum(w, x.value.T @ g)
        _accum(b, _unbroadcast(g, b.value.shape))

    return Tensor(_affine(x.value, w.value, b.value), (x, w, b), bw)


def transpose(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, g.T)

    return Tensor(a.value.T, (a,), bw)


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, g * (a.value > 0))

    return Tensor(_relu(a.value), (a,), bw)


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
    y = _softmax_rows(a.value)

    def bw(g):
        # dS = y * (g - sum_j g_j y_j) per row
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, y * (g - dot))

    return Tensor(y, (a,), bw)


def l2_normalize_rows_or_zero(a: Tensor) -> Tensor:
    """Scale each row of a 2D tensor to unit L2 norm; zero rows stay zero.

    A zero row has no direction, so its output and its gradient are 0.
    """
    a = _wrap(a)
    y, n = _unit_rows_or_zero(a.value)

    def bw(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, (g - y * dot) / n)

    return Tensor(y, (a,), bw)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then apply gain and bias."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    if x.value.ndim != 2:
        raise ValueError("layer_norm_rows expects a 2D tensor")
    out, y, inv = _layer_norm(x.value, gain.value, bias.value)

    def bw(g):
        _accum(gain, (g * y).sum(axis=0))
        _accum(bias, g.sum(axis=0))
        dy = g * gain.value
        d = dy.shape[1]
        m1 = dy.sum(axis=1, keepdims=True) / d
        m2 = (dy * y).sum(axis=1, keepdims=True) / d
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
    """Columns start:stop of a 2D tensor; the whole width is `a` itself, with no node."""
    a = _wrap(a)
    if start == 0 and stop == a.value.shape[1]:
        return a
    out = a.value[:, start:stop]

    def bw(g):
        acc = np.zeros_like(a.value)
        acc[:, start:stop] = g
        _accum(a, acc)

    return Tensor(out, (a,), bw)


# ---------------------------------------------------------------------------
# plain-array forwards


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    e = a - np.maximum.reduce(a, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _unit_rows_or_zero(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows scaled to unit L2 norm, the norms); a zero row is divided by inf, so it and its gradient stay 0."""
    # `np.linalg.norm(a, axis=1)` of a real array is this reduction.
    n = np.add.reduce(a * a, axis=1, keepdims=True)
    np.sqrt(n, out=n)
    if not n.all():
        n[n == 0.0] = np.inf
    return a / n, n


def _relu(a: np.ndarray) -> np.ndarray:
    """`a * (a > 0)` bit for bit on finite entries, signed zeros included, in two cheaper calls."""
    out = np.maximum(a, 0.0)
    return np.copysign(out, a, out=out)


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows scaled to zero mean and unit variance, 1 / row std), with 1e-8 added to the variance.

    Each row's result depends on that row alone, so the normalization of
    a row computed in one batch serves every later batch that holds it.
    """
    # `sum / d` is numpy's own `mean`, minus its dispatch overhead.
    d = x.shape[1]
    mean = np.add.reduce(x, axis=1, keepdims=True)
    mean /= d
    y = x - mean
    inv = np.add.reduce(y * y, axis=1, keepdims=True)
    inv /= d
    inv += 1e-8
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    y *= inv
    return y, inv


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(output, normalized rows, 1 / row std) of layer norm."""
    y, inv = _normalize_rows(x)
    out = y * gain
    out += bias
    return out, y, inv


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out

