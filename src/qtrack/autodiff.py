"""Reverse-mode differentiation over float64 numpy arrays.

This is deliberately not a general autodiff: it covers exactly the
operations the trainable blocks need (products of a matrix with a
matrix or a vector, bias adds, rectifier, sigmoid, row softmax, row L2
normalisation, layer norm, log/pow/sum, concatenation and row gather),
and only in the shapes they reach. Every op builds a node holding the
forward value, its parents, its backward function ``_<op>_bw(node, g)``
(shared by every node of the op) and, in ``_saved``, only what that
function cannot read from the parents or the node's own value. Calling
``backward()`` on a scalar walks the graph in reverse topological order
and consumes it: each node is released (no gradient, function, saved
arrays or parents; its value stays) as soon as its function has run, so
reference counting frees the tape as the walk goes and backward never
holds much more than the forward left live.

Leaf tensors double as parameters: after ``backward()``, ``grad``
holds dL/dvalue with the same shape as ``value``. Only leaves keep
``grad``.

The blocks in ``matcher`` call these ops by name on tensors, and so
record the graph that training differentiates; products, sums, scaling
and transposes are ``@``, ``+``, ``*`` and ``.T``. Where an op's
forward is plain arithmetic (rectifier, row softmax, unit rows, layer
norm), it computes its value with a plain-array function below.
Tracking runs ``matcher.matcher_forward`` on a ``PackedMatcher``, which
calls these same functions on plain copies of the weights, so the two
agree bit for bit by construction.

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
time. Each node is also as few tracked objects as it can be: their
allocations drive the cyclic collector, which finds nothing on a tape
that reference counting frees; a closure per node would make about five.
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
    """A float64 array plus gradient storage, its parents, a backward function and what it saved."""

    __slots__ = ("value", "grad", "_parents", "_backward", "_saved")

    def __init__(self, value, _parents=(), _backward=None, _saved=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._saved = _saved

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

        Each node with a backward function is released once it has run
        (no ``grad``, function, saved values or parents; its ``value``
        stays), so only leaves keep ``grad`` and the tape is freed as
        the walk goes.
        """
        if self.value.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node, node.grad)
                node.grad = node._backward = node._saved = None
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
    # a Tensor hashes by identity; two parallel stacks, so a push allocates no (node, expanded) tuple
    order: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[Tensor] = [root]
    expanded: list[bool] = [False]
    while stack:
        node = stack.pop()
        if expanded.pop():
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append(node)
        expanded.append(True)
        for parent in node._parents:
            if parent not in visited:
                stack.append(parent)
                expanded.append(False)
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
    return Tensor(a.value + b.value, (a, b), _add_bw)


def _add_bw(node, g):
    a, b = node._parents
    _accum(a, _unbroadcast(g, a.value.shape))
    _accum(b, _unbroadcast(g, b.value.shape))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return Tensor(a.value * b.value, (a, b), _mul_bw)


def _mul_bw(node, g):
    a, b = node._parents
    _accum(a, _unbroadcast(g * b.value, a.value.shape))
    _accum(b, _unbroadcast(g * a.value, b.value.shape))


def matmul(a, b) -> Tensor:
    """Product of a 2D tensor with a 2D tensor or a vector."""
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2:
        raise ValueError("matmul expects a 2D left operand")
    return Tensor(a.value @ b.value, (a, b), _matmul_bw)


def _matmul_bw(node, g):
    a, b = node._parents
    _accum(a, g @ b.value.T if b.value.ndim == 2 else np.outer(g, b.value))
    _accum(b, a.value.T @ g)


def linear(x, w, b) -> Tensor:
    """x @ w + b for 2D x as one node; its gradients are those of `matmul` then `add`."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.value.ndim != 2:
        raise ValueError("linear expects a 2D tensor")
    return Tensor(_affine(x.value, w.value, b.value), (x, w, b), _linear_bw)


def _linear_bw(node, g):
    x, w, b = node._parents
    g = g + 0.0  # the product's gradient as `add` accumulated it
    _accum(x, g @ w.value.T)
    _accum(w, x.value.T @ g)
    _accum(b, _unbroadcast(g, b.value.shape))


def transpose(a: Tensor) -> Tensor:
    a = _wrap(a)
    return Tensor(a.value.T, (a,), _transpose_bw)


def _transpose_bw(node, g):
    _accum(node._parents[0], g.T)


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    return Tensor(_relu(a.value), (a,), _relu_bw)


def _relu_bw(node, g):
    (a,) = node._parents
    _accum(a, g * (a.value > 0))


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    x = a.value
    # Split by sign so the exp never overflows.
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Tensor(s, (a,), _sigmoid_bw)


def _sigmoid_bw(node, g):
    s = node.value
    _accum(node._parents[0], g * s * (1.0 - s))


def log(a: Tensor) -> Tensor:
    a = _wrap(a)
    return Tensor(np.log(a.value), (a,), _log_bw)


def _log_bw(node, g):
    (a,) = node._parents
    _accum(a, g / a.value)


def pow_const(a: Tensor, k: float) -> Tensor:
    """a**k for a constant exponent k (a must stay in the domain of x^(k-1))."""
    a = _wrap(a)
    k = float(k)
    return Tensor(a.value ** k, (a,), _pow_const_bw, k)


def _pow_const_bw(node, g):
    (a,), k = node._parents, node._saved
    _accum(a, g * k * a.value ** (k - 1.0))


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    return Tensor(a.value.sum(axis=axis), (a,), _sum_bw, axis)


def _sum_bw(node, g):
    (a,), axis = node._parents, node._saved
    _accum(a, np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.value.shape).copy())


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2D tensor, computed with max subtraction."""
    a = _wrap(a)
    if a.value.ndim != 2:
        raise ValueError("softmax_rows expects a 2D tensor")
    return Tensor(_softmax_rows(a.value), (a,), _softmax_rows_bw)


def _softmax_rows_bw(node, g):
    # dS = y * (g - sum_j g_j y_j) per row
    y = node.value
    dot = (g * y).sum(axis=1, keepdims=True)
    _accum(node._parents[0], y * (g - dot))


def l2_normalize_rows_or_zero(a: Tensor) -> Tensor:
    """Scale each row of a 2D tensor to unit L2 norm; zero rows stay zero.

    A zero row has no direction, so its output and its gradient are 0.
    """
    a = _wrap(a)
    y, n = _unit_rows_or_zero(a.value)
    return Tensor(y, (a,), _unit_rows_bw, n)


def _unit_rows_bw(node, g):
    y, n = node.value, node._saved
    dot = (g * y).sum(axis=1, keepdims=True)
    _accum(node._parents[0], (g - y * dot) / n)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then apply gain and bias."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    if x.value.ndim != 2:
        raise ValueError("layer_norm_rows expects a 2D tensor")
    out, y, inv = _layer_norm(x.value, gain.value, bias.value)
    return Tensor(out, (x, gain, bias), _layer_norm_bw, (y, inv))


def _layer_norm_bw(node, g):
    (x, gain, bias), (y, inv) = node._parents, node._saved
    _accum(gain, (g * y).sum(axis=0))
    _accum(bias, g.sum(axis=0))
    dy = g * gain.value
    d = dy.shape[1]
    m1 = dy.sum(axis=1, keepdims=True) / d
    m2 = (dy * y).sum(axis=1, keepdims=True) / d
    _accum(x, inv * (dy - m1 - y * m2))


def concat_rows(parts: list[Tensor]) -> Tensor:
    parts = tuple(_wrap(p) for p in parts)
    return Tensor(np.concatenate([p.value for p in parts], axis=0), parts, _concat_rows_bw)


def _concat_rows_bw(node, g):
    off = 0
    for p in node._parents:
        n = p.value.shape[0]
        _accum(p, g[off:off + n])
        off += n


def concat_cols(parts: list[Tensor]) -> Tensor:
    parts = tuple(_wrap(p) for p in parts)
    return Tensor(np.concatenate([p.value for p in parts], axis=1), parts, _concat_cols_bw)


def _concat_cols_bw(node, g):
    off = 0
    for p in node._parents:
        n = p.value.shape[1]
        _accum(p, g[:, off:off + n])
        off += n


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows (2D) or entries (1D) by index; duplicates accumulate on backward."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    return Tensor(a.value[idx], (a,), _take_rows_bw, idx)


def _take_rows_bw(node, g):
    (a,) = node._parents
    acc = np.zeros_like(a.value)
    np.add.at(acc, node._saved, g)
    _accum(a, acc)


def take_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of a 2D tensor; the whole width is `a` itself, with no node."""
    a = _wrap(a)
    if start == 0 and stop == a.value.shape[1]:
        return a
    return Tensor(a.value[:, start:stop], (a,), _take_cols_bw, (start, stop))


def _take_cols_bw(node, g):
    (a,), (start, stop) = node._parents, node._saved
    acc = np.zeros_like(a.value)
    acc[:, start:stop] = g
    _accum(a, acc)


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

