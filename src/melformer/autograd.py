"""Reverse-mode automatic differentiation over dense float32 or float64 numpy arrays.

The engine is deliberately small: it provides exactly the operations the
emotion model needs, each with a hand-written backward rule, plus a
finite-difference checker used to verify every rule.  Elementwise ops take
same-shape operands; the only broadcast is a 1-D bias over the last axis
(or its leading columns), added inside ``matmul``, ``conv1d`` and
``layer_norm``, so each backward rule stays auditable.

A forward pass records lineage links between tensors; ``backward`` walks
that graph once in reverse topological order and accumulates gradients,
summing the contributions of every consumer of a tensor.  A gradient is
allocated on its tensor's first contribution, and constants (masks,
inputs, anything that does not require grad) never get one.  Graphs are
per-step and ``backward`` consumes them as it goes: once a node's rule has
run, the node loses its rule, its parent links and its ``grad``, so each
interior node the caller does not hold is freed by reference counting
during backward, without waiting for the cyclic garbage collector.  Leaves
(parameters, inputs, constants) are left as they are, so parameters keep
their ``grad`` and feed the next step's graph.

Every op computes in its operands' dtype, so a float32 model runs float32
end to end and a float64 one float64: no op brings in a float64 scalar,
buffer or mask of its own, and each gradient takes its tensor's dtype.
"""

import contextlib
import math

import numpy as np

from .errors import ContractError, NumericError, ShapeError, ValidationError

DTYPE = np.float64  # what a tensor built from anything but a float32/float64 array holds
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
NEG_MASK = -1e9  # additive score of a masked attention key; its weight underflows to 0

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable lineage recording inside the block (evaluation mode)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """Dense n-dimensional array with an optional gradient and lineage.

    ``data`` keeps the dtype of a float32 or float64 array; anything else
    (lists, ints, Python scalars) becomes ``DTYPE``.  :func:`backward`
    leaves a ``grad`` of the same shape and dtype as ``data`` on each leaf
    that requires one; interior nodes and constants end it with ``grad``
    None.  Ops never write into their operands' ``data``.  Parameters are
    the exception: the optimizer and ``load_state_dict`` update them in
    place, and under ``harness.Adam`` a parameter's ``data`` is a view of
    the optimizer's flat arena, so it must be written (``data[...] = x``),
    never rebound.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "__weakref__")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Segments:
    """Row layout of a packed stream: one segment of rows per sequence.

    Segment s spans rows ``offsets[s]:offsets[s + 1]`` (``offsets`` holds
    the cumulative lengths, like FlashAttention's ``cu_seqlens``), and its
    first ``valid[s]`` rows are real: the rest are padding.  Row-wise ops
    ignore the layout; the ops that look across rows (attention, conv
    windows, max pooling, row zeroing) take it and stay inside each segment.
    """

    def __init__(self, lengths, valid=None):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.valid = self.lengths if valid is None else np.asarray(valid, dtype=np.int64)
        if (self.lengths.ndim != 1 or not self.lengths.size
                or self.valid.shape != self.lengths.shape or np.any(self.lengths < 1)):
            raise ShapeError(f"segments need one length >= 1 and one valid count each, "
                             f"got lengths {self.lengths} and valid {self.valid}")
        if np.any(self.valid < 0) or np.any(self.valid > self.lengths):
            raise ShapeError(f"valid counts {self.valid} outside [0, lengths {self.lengths}]")
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        self.total = int(self.offsets[-1])
        self.padded = bool(np.any(self.valid < self.lengths))

    def __len__(self):
        return len(self.lengths)

    def positions(self) -> np.ndarray:
        """Each row's index inside its own segment."""
        return np.arange(self.total) - np.repeat(self.offsets[:-1], self.lengths)

    def spans(self):
        """``(start, stop, valid)`` of each segment, as Python ints."""
        return zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist(), self.valid.tolist())


def _layout(segs, rows, what):
    """``segs``, checked against the ``rows`` it lays out."""
    if segs.total != rows:
        raise ShapeError(f"{what} has {rows} rows, its segments cover {segs.total}")
    return segs


def _track(out: Tensor, parents, backward_fn) -> Tensor:
    """Attach lineage to ``out`` if recording is on and any parent needs it."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward_fn
    return out


def _consumed():
    """Backward rule left on interior nodes by :func:`backward`."""
    raise ContractError("graph was consumed by an earlier backward; run the forward pass again")


def _accumulate(t: Tensor, g, owned=True):
    """Add the contribution ``g`` to ``t.grad``, allocating it on the first one.

    ``owned`` means no other tensor can hold ``g``: a fresh array from a
    rule, or the consumer's own grad handed to a single operand (backward
    drops that grad right after the rule).  An owned first contribution
    becomes the grad as it is; any other is copied, so no two tensors ever
    share a gradient buffer.  The grad always has ``t``'s dtype.
    """
    if t.grad is None:
        if type(g) is not np.ndarray or g.dtype != t.data.dtype:
            # numpy arithmetic on 0-d arrays gives scalars; a wider operand a wider dtype
            g = np.asarray(g, dtype=t.data.dtype)
        t.grad = g if owned else g.copy()
    else:
        t.grad += g


def backward(loss: Tensor):
    """Populate ``grad`` on every tensor the scalar ``loss`` depends on.

    The graph below ``loss`` is linearized once (each node visited exactly
    once, children before parents) and traversed in reverse; fan-out sums
    all consumer contributions.  Gradients from a previous call are
    discarded first.  Each gradient is allocated on its first contribution;
    constants in the graph are not visited and never get a ``grad``.

    The graph is consumed as it is walked: once a node's rule has run, the
    node loses its backward rule, its parent links and its ``grad``, and the
    walk lets go of it, so an interior node the caller does not hold is
    freed before backward returns.  Only leaves end with a ``grad``.  A later
    backward through a consumed node raises ContractError before any
    gradient is touched.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _consumed:
            _consumed()
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward()
            node._backward = _consumed
            node._prev = ()
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise and structural operations


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)

    def _bw():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g, owned=not a.requires_grad)  # a may hold g itself

    return _track(out, (a, b), _bw)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def _bw():
        if a.requires_grad:
            _accumulate(a, -out.grad)

    return _track(out, (a,), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data)

    def _bw():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _track(out, (a, b), _bw)


def matmul(a: Tensor, b: Tensor, bias: Tensor = None) -> Tensor:
    """Matrix product of two rank-2 tensors, plus a 1-D ``bias`` over the last
    axis if one is given: ``nn.Linear``'s x W + b as one node.  A bias
    narrower than the output covers its leading columns only (a fused
    attention projection's keys have none)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    if bias is not None and (bias.ndim != 1 or not 0 < bias.shape[0] <= b.shape[1]):
        raise ShapeError(f"matmul bias {bias.shape} does not fit {b.shape[1]} output columns")
    out = Tensor(a.data @ b.data)
    if bias is not None:
        pad = b.shape[1] - bias.shape[0]
        # a narrow bias, padded with zeros, is added in one contiguous pass
        # over whole rows, which is faster than a strided one over their lead
        out.data += np.concatenate([bias.data, np.zeros(pad, bias.data.dtype)]) if pad else bias.data

    def _bw():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g[:, :bias.shape[0]].sum(axis=0))

    return _track(out, (a, b) if bias is None else (a, b, bias), _bw)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 tensor, got {a.shape}")
    out = Tensor(a.data.T)

    def _bw():
        if a.requires_grad:
            _accumulate(a, out.grad.T, owned=False)

    return _track(out, (a,), _bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def _bw():
        if a.requires_grad:
            _accumulate(a, out.grad.reshape(a.shape))

    return _track(out, (a,), _bw)


def getitem(a: Tensor, idx) -> Tensor:
    """Basic indexing (ints and slices) or an integer array of rows;
    backward scatters into the source."""
    out = Tensor(a.data[idx])

    def _bw():
        if a.requires_grad:
            scatter = np.zeros_like(a.data)
            np.add.at(scatter, idx, out.grad)
            _accumulate(a, scatter)

    return _track(out, (a,), _bw)


def concat(parts, axis=0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))

    def _bw():
        offset = 0
        for p in parts:
            n = p.shape[axis]
            sl = [slice(None)] * out.ndim
            sl[axis] = slice(offset, offset + n)
            if p.requires_grad:
                _accumulate(p, out.grad[tuple(sl)], owned=False)
            offset += n

    return _track(out, tuple(parts), _bw)


def stack_rows(vectors) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix, one per row."""
    vectors = list(vectors)
    if not vectors:
        raise ShapeError("stack_rows needs at least one vector")
    for v in vectors:
        if v.ndim != 1 or v.shape != vectors[0].shape:
            raise ShapeError("stack_rows needs same-length 1-D tensors")
    out = Tensor(np.stack([v.data for v in vectors], axis=0))

    def _bw():
        for i, v in enumerate(vectors):
            if v.requires_grad:
                _accumulate(v, out.grad[i], owned=False)

    return _track(out, tuple(vectors), _bw)


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(a.data.sum())

    def _bw():
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, float(out.grad)))

    return _track(out, (a,), _bw)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def _bw():
        if a.requires_grad:
            _accumulate(a, out.grad * (a.data > 0.0))

    return _track(out, (a,), _bw)


def _sigmoid(x):
    """Logistic function of an array; exp(-|x|) keeps both tails away from overflow."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y)

    def _bw():
        if a.requires_grad:
            _accumulate(a, out.grad * y * (1.0 - y))

    return _track(out, (a,), _bw)


def highway(h: Tensor, z: Tensor, u: Tensor) -> Tensor:
    """One highway layer's output ``h * t + u * (1 - t)`` with the gate
    ``t = sigmoid(z)``, for same-shape transform ``h``, gate logits ``z``
    and carried input ``u``, as one node.  The node keeps only ``t``."""
    if not h.shape == z.shape == u.shape:
        raise ShapeError(f"highway needs same-shape operands, got {h.shape}, {z.shape} and {u.shape}")
    t = _sigmoid(z.data)
    y = h.data * t
    y += u.data * (1.0 - t)
    out = Tensor(y)

    def _bw():
        g = out.grad
        if h.requires_grad:
            _accumulate(h, g * t)
        keep = 1.0 - t
        if u.requires_grad:
            _accumulate(u, g * keep)
        if z.requires_grad:
            dz = g * h.data
            dz -= g * u.data
            dz *= t
            dz *= keep
            _accumulate(z, dz)

    return _track(out, (h, z, u), _bw)


# ---------------------------------------------------------------------------
# fused neural-network operations


def _softmax_last(x, out):
    """Softmax of an array over its last axis into ``out``, computed with
    max-subtraction in place: ``x`` is overwritten (``out`` may be ``x``).

    A row's max is NaN exactly when the row holds a NaN, so the check reads
    the maxima, not the whole input."""
    peak = x.max(axis=-1, keepdims=True)
    if np.isnan(peak).any():
        raise NumericError("softmax input contains NaN")
    x -= peak
    np.exp(x, out=x)
    return np.divide(x, x.sum(axis=-1, keepdims=True), out=out)


def _softmax_grad(y, g):
    """Gradient through ``y = softmax(x)`` over the last axis, given dL/dy
    in ``g``, which it overwrites and returns."""
    g -= (g * y).sum(axis=-1, keepdims=True)
    g *= y
    return g


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    y = a.data.copy()
    _softmax_last(y, out=y)
    out = Tensor(y)

    def _bw():
        if a.requires_grad:
            _accumulate(a, _softmax_grad(y, out.grad.copy()))

    return _track(out, (a,), _bw)


def _split_heads(x, heads):
    """[T, heads * d_head] array -> [heads, T, d_head] view, one column block per
    head.  ``x`` is a row range and column block of a C-ordered array, so the
    reshape is a view, and attention writes its outputs through it."""
    t, d = x.shape
    return x.reshape(t, heads, d // heads).transpose(1, 0, 2)


def attention(q: Tensor, kv: Tensor, heads: int, q_segs: Segments, k_segs: Segments,
              rate: float = 0.0, rng: np.random.Generator = None, on_weights=None) -> Tensor:
    """Multi-head scaled dot-product attention of every segment in one node.

    The projections arrive fused, in column blocks of D = heads * d_head:
    the queries are the leading D columns of ``q``, and the values then the
    keys (v | k) are the trailing 2D columns of ``kv``.  Cross-attention
    passes a [Tq, D] ``q`` and a [Tk, 2D] ``kv``; self-attention passes one
    [T, 3D] q | v | k tensor as both (``q is kv``).  A projection's bias
    over its leading columns so covers q and v and never k.  The node reads
    the blocks in place, so the graph holds no split, and each distinct
    input's gradient is one array of its shape.

    The rows are packed streams laid out by ``q_segs`` and ``k_segs``
    (:class:`Segments`); segment s of the queries attends only to segment s
    of the keys, and head h owns the h-th d_head columns of each block.
    Each segment's [heads, Tq_s, Tk_s] map is the softmax over keys of
    (q_h / sqrt(d_head)) k_h^T: the scale is applied to the [Tq, D] query
    rows, not to the map.  Key rows past the segment's valid count get
    NEG_MASK added to their scores, so their weight underflows to exactly
    zero.  The maps lie segment after segment in one flat array.  With
    ``rate`` > 0, dropout zeroes its entries by one :func:`_keep_mask` draw
    over that array, as :func:`dropout` would (16-bit thresholds, four
    entries per raw word), and a dropped map is the map times the boolean
    mask: the mask's scale is applied to the [Tq, D] output instead.  Returns
    [Tq, D]: head h's weighted sum of the value rows, in its own columns.

    The node keeps the pre-dropout maps and the boolean keep mask.  Backward
    applies the mask's scale to the [Tq, D] incoming gradient, takes the
    softmax row term as rowsum(dO * O) per head from the output and its
    gradient (FlashAttention's D, with no map-sized temporary), and applies
    the query scale to the [T, D] rows of dq and dk.  ``on_weights``, if
    given, receives the last segment's pre-dropout map as a [heads, Tq, Tk]
    view.
    """
    width = q.shape[-1] // 3 if q is kv else q.shape[-1]
    if q.ndim != 2 or kv.ndim != 2 or kv.shape[1] != (3 if q is kv else 2) * width:
        raise ShapeError(f"attention needs q [Tq, D] and kv [Tk, 2D], or one [T, 3D] tensor "
                         f"as both, got {q.shape} and {kv.shape}")
    if heads < 1 or width % heads != 0:
        raise ShapeError(f"width {width} does not split into {heads} heads")
    q_segs = _layout(q_segs, q.shape[0], "q")
    k_segs = _layout(k_segs, kv.shape[0], "k")
    if len(q_segs) != len(k_segs):
        raise ShapeError(f"{len(q_segs)} query segments vs {len(k_segs)} key segments")
    queries, values, keys = q.data[:, :width], kv.data[:, -2 * width:-width], kv.data[:, -width:]
    # per segment: its query rows, its key rows and valid keys, and its map's
    # place in the flat array
    at = np.concatenate([[0], np.cumsum(heads * q_segs.lengths * k_segs.lengths)]).tolist()
    spans = [(q0, q1, k0, k1, valid, a0, a1, (heads, q1 - q0, k1 - k0))
             for (q0, q1, _), (k0, k1, valid), a0, a1
             in zip(q_segs.spans(), k_segs.spans(), at[:-1], at[1:])]
    scale = 1.0 / math.sqrt(width // heads)  # a Python float keeps float32 rows float32
    scaled = queries * scale
    y = np.empty(at[-1], dtype=np.result_type(q.data, kv.data))
    for q0, q1, k0, k1, valid, a0, a1, shape in spans:
        weights = y[a0:a1].reshape(shape)
        np.matmul(_split_heads(scaled[q0:q1], heads),
                  _split_heads(keys[k0:k1], heads).transpose(0, 2, 1), out=weights)
        if valid < k1 - k0:
            weights[..., valid:] += NEG_MASK
        _softmax_last(weights, out=weights)
    if on_weights is not None:
        *_, a0, a1, shape = spans[-1]
        on_weights(y[a0:a1].reshape(shape))
    keep, keep_scale = _keep_mask(rng, y.shape, rate, y.dtype) if rate > 0.0 else (None, None)

    def dropped(a0, a1, shape, scratch):
        """One segment's map times the keep mask, in ``scratch`` (the map
        itself without dropout)."""
        weights = y[a0:a1].reshape(shape)
        if keep is None:
            return weights
        return np.multiply(weights, keep[a0:a1].reshape(shape),
                           out=scratch[:a1 - a0].reshape(shape))

    # the largest segment's map size: one scratch of it serves every segment
    largest = max(a1 - a0 for *_, a0, a1, _ in spans)
    scratch = None if keep is None else np.empty(largest, dtype=y.dtype)
    out = Tensor(np.empty((q.shape[0], width), dtype=y.dtype))
    for q0, q1, k0, k1, _, a0, a1, shape in spans:
        np.matmul(dropped(a0, a1, shape, scratch), _split_heads(values[k0:k1], heads),
                  out=_split_heads(out.data[q0:q1], heads))
    if keep is not None:
        out.data *= keep_scale

    def _bw():
        # each input's gradient is one C-ordered array of its shape, which the
        # per-head views below write into, block by block
        grads = {t: np.empty(t.shape, dtype=t.data.dtype) for t in (q, kv) if t.requires_grad}
        dq = grads[q][:, :width] if q in grads else None
        dv, dk = (grads[kv][:, -2 * width:-width], grads[kv][:, -width:]) if kv in grads else (None, None)
        queries, values, keys = q.data[:, :width], kv.data[:, -2 * width:-width], kv.data[:, -width:]
        g = out.grad if keep is None else out.grad * keep_scale
        if dq is not None or dk is not None:
            row_term = np.multiply(out.grad, out.data).reshape(len(g), heads, -1).sum(axis=-1)
        scratch = np.empty(largest, dtype=y.dtype)
        for q0, q1, k0, k1, _, a0, a1, shape in spans:
            gh = _split_heads(g[q0:q1], heads)
            weights = dropped(a0, a1, shape, scratch)
            if dv is not None:
                np.matmul(weights.transpose(0, 2, 1), gh, out=_split_heads(dv[k0:k1], heads))
            if dq is None and dk is None:
                continue
            # the dropped map is spent: the scratch takes the map's gradient
            ds = np.matmul(gh, _split_heads(values[k0:k1], heads).transpose(0, 2, 1),
                           out=scratch[:a1 - a0].reshape(shape))
            if keep is not None:
                ds *= keep[a0:a1].reshape(shape)
            ds -= row_term[q0:q1].T[:, :, None]
            ds *= y[a0:a1].reshape(shape)
            if dq is not None:
                np.matmul(ds, _split_heads(keys[k0:k1], heads), out=_split_heads(dq[q0:q1], heads))
            if dk is not None:
                np.matmul(ds.transpose(0, 2, 1), _split_heads(queries[q0:q1], heads),
                          out=_split_heads(dk[k0:k1], heads))
        for block in (dq, dk):
            if block is not None:
                block *= scale
        for t, grad in grads.items():
            _accumulate(t, grad)

    return _track(out, (q,) if q is kv else (q, kv), _bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5,
               residual: Tensor = None) -> Tensor:
    """Normalize each row over the last axis to zero mean / unit variance, then affine.

    With a ``residual`` of ``x``'s shape, the rows normalized are those of
    ``x + residual``, in the same node (a sublayer's ``norm(x + f(x))``), and
    both get that sum's gradient.  The node keeps only the normalized rows
    and the per-row inverse deviations.
    """
    if gain.ndim != 1 or bias.ndim != 1:
        raise ShapeError("layer_norm gain and bias must be 1-D")
    d = x.shape[-1]
    if gain.shape[0] != d or bias.shape[0] != d:
        raise ShapeError(f"layer_norm affine size {gain.shape}/{bias.shape} does not match last axis {d}")
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"layer_norm residual {residual.shape} does not match input {x.shape}")
    summed = x.data if residual is None else x.data + residual.data
    mu = summed.mean(axis=-1, keepdims=True)
    xhat = np.subtract(summed, mu, out=None if residual is None else summed)
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y)

    def _bw():
        g = out.grad
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad or (residual is not None and residual.requires_grad):
            dx = g * gain.data
            m1 = dx.mean(axis=-1, keepdims=True)
            scratch = np.multiply(dx, xhat)
            m2 = scratch.mean(axis=-1, keepdims=True)
            dx -= m1
            dx -= np.multiply(xhat, m2, out=scratch)
            dx *= inv
            if x.requires_grad:
                _accumulate(x, dx)
            if residual is not None and residual.requires_grad:
                _accumulate(residual, dx, owned=not x.requires_grad)

    return _track(out, (x, gain, bias) if residual is None else (x, gain, bias, residual), _bw)


def conv1d(x: Tensor, kernels: Tensor, segs: Segments, bias: Tensor = None) -> Tensor:
    """Cross-correlation along the time axis, same padding, inside each segment.

    ``x`` is [T, Cin], packed by ``segs`` (:class:`Segments`), and
    ``kernels`` is [W, Cin, Cout].  Each segment gets (W-1)//2 leading and
    W//2 trailing zero steps of its own, so the output keeps its T steps and
    no window reaches into a neighbouring segment:
    out[t, o] = sum_w sum_i xpad[t+w, i] * k[w, i, o] (+ bias[o], if a
    [Cout] ``bias`` is given, added in the same node).
    """
    if x.ndim != 2 or kernels.ndim != 3:
        raise ShapeError(f"conv1d needs x[T,Cin] and kernels[W,Cin,Cout], "
                         f"got {x.shape} and {kernels.shape}")
    t_in, c_in = x.shape
    w, kc_in, c_out = kernels.shape
    if kc_in != c_in:
        raise ShapeError(f"conv1d channel mismatch: input has {c_in}, kernels expect {kc_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv1d bias {bias.shape} does not match {c_out} output channels")
    segs = _layout(segs, t_in, "conv1d input")
    pad_left = (w - 1) // 2
    # the segments sit in one zero buffer with W - 1 zero steps between
    # neighbours; row r's window starts at step start[r] of that buffer
    start = np.arange(t_in) + (w - 1) * np.repeat(np.arange(len(segs)), segs.lengths)
    xp = np.zeros((t_in + len(segs) * (w - 1), c_in), dtype=x.data.dtype)
    xp[start + pad_left] = x.data
    cols = xp[start[:, None] + np.arange(w)].reshape(t_in, w * c_in)
    kmat = kernels.data.reshape(w * c_in, c_out)
    out = Tensor(cols @ kmat)
    if bias is not None:
        out.data += bias.data

    def _bw():
        g = out.grad
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))
        if kernels.requires_grad:
            _accumulate(kernels, (cols.T @ g).reshape(w, c_in, c_out))
        if x.requires_grad:
            dcols = (g @ kmat.T).reshape(t_in, w, c_in)
            dxp = np.zeros_like(xp)
            for i in range(w):
                dxp[start + i] += dcols[:, i]  # no step repeats within one i
            _accumulate(x, dxp[start + pad_left])

    return _track(out, (x, kernels) if bias is None else (x, kernels, bias), _bw)


def max_pool_time(x: Tensor, segs: Segments) -> Tensor:
    """Per-channel maximum of each segment; gradient goes to its first argmax.

    ``x`` is [T, C], packed by ``segs`` (:class:`Segments`) -> [segments, C].
    Every row of a segment takes part, so a layout with padding rows is
    refused.
    """
    if x.ndim != 2:
        raise ShapeError(f"max_pool_time needs x[T,C], got {x.shape}")
    segs = _layout(segs, x.shape[0], "max_pool_time input")
    if segs.padded:
        raise ShapeError("max_pool_time pools whole segments; its layout has padding rows")
    starts = segs.offsets[:-1]
    out = Tensor(np.maximum.reduceat(x.data, starts, axis=0))
    # each segment's first row not below its maximum (a NaN row counts as one)
    rows = np.where(x.data < np.repeat(out.data, segs.lengths, axis=0), segs.total,
                    np.arange(segs.total)[:, None])
    idx = np.minimum.reduceat(rows, starts, axis=0)  # [segments, C]

    def _bw():
        if x.requires_grad:
            scatter = np.zeros_like(x.data)
            scatter[idx, np.arange(x.shape[1])] = out.grad
            _accumulate(x, scatter)

    return _track(out, (x,), _bw)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels under softmax(logits).

    The reduction is the mean over the batch so the learning rate is stable
    across batch sizes.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy needs logits[N,K], got {logits.shape}")
    n, k = logits.shape
    if k < 2:
        raise ValidationError(f"cross_entropy needs at least 2 classes, got {k}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValidationError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ValidationError(f"label {bad} outside [0, {k})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_p = shifted - log_z
    rows = np.arange(n)
    out = Tensor(-log_p[rows, labels].mean())

    def _bw():
        if logits.requires_grad:
            d = np.exp(log_p)
            d[rows, labels] -= 1.0
            _accumulate(logits, d * (float(out.grad) / n))

    return _track(out, (logits,), _bw)


def embedding_rows(table: Tensor, ids, frozen_row: int | None = None) -> Tensor:
    """Gather rows of an embedding table; backward scatter-adds into the table.

    ``ids`` may have any shape; the output appends the table's row axis.
    ``frozen_row`` (the padding id) reads as zeros and never receives
    gradient, so its table row has no effect.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be rank 2, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValidationError(f"embedding id outside [0, {table.shape[0]})")
    rows = table.data[ids]
    if frozen_row is not None:
        rows[ids == frozen_row] = 0.0
    out = Tensor(rows)

    def _bw():
        if table.requires_grad:
            scatter = np.zeros_like(table.data)
            np.add.at(scatter, ids, out.grad)
            if frozen_row is not None:
                scatter[frozen_row] = 0.0
            _accumulate(table, scatter)

    return _track(out, (table,), _bw)


def zero_rows(x: Tensor, segs: Segments) -> Tensor:
    """Zero each segment's rows past its valid count; gradient is blocked the same way.

    With no row to zero, ``x`` itself comes back and no node is added."""
    if x.ndim != 2:
        raise ShapeError(f"zero_rows needs a rank-2 tensor, got {x.shape}")
    segs = _layout(segs, x.shape[0], "zero_rows input")
    if not segs.padded:
        return x
    pad = segs.positions() >= np.repeat(segs.valid, segs.lengths)
    out_data = x.data.copy()
    out_data[pad] = 0.0
    out = Tensor(out_data)

    def _bw():
        if x.requires_grad:
            g = out.grad.copy()
            g[pad] = 0.0
            _accumulate(x, g)

    return _track(out, (x,), _bw)


def _keep_mask(rng: np.random.Generator, shape, rate: float, dtype):
    """Boolean keep mask of ``shape`` for dropout at ``rate`` in (0, 1), and
    a kept entry's scale as a ``dtype`` scalar.

    ceil(n / 4) raw 64-bit words from ``rng.bit_generator``, viewed as n
    16-bit integers u (each word's quarters in memory order): entry i is
    kept iff u[i] >= t = ceil(rate * 2**16).  The rate so counts in steps of
    2**-16 (0.1 drops a share of 0.100006); the scale 2**16 / (2**16 - t)
    inverts the kept share exactly, so dropout keeps its input's mean.  A
    t of 2**16 or more keeps nothing, with scale 0.  The mask depends only
    on the generator and the shape, and the draw is the same at every rate.
    """
    n = math.prod(shape)
    threshold = math.ceil(rate * 2**16)
    words = rng.bit_generator.random_raw((n + 3) // 4)
    dtype = np.dtype(dtype).type
    if threshold >= 2**16:
        return np.zeros(shape, dtype=bool), dtype(0.0)
    keep = (words.view(np.uint16)[:n] >= np.uint16(threshold)).reshape(shape)
    return keep, dtype(2**16 / (2**16 - threshold))


def _dropped(a, keep, scale):
    """``a`` after inverted dropout: its entries times ``scale`` where the
    boolean ``keep`` is set, zero elsewhere; no float mask is built."""
    out = np.multiply(a, scale)
    out *= keep
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate``, rescale the rest.

    The mask is one :func:`_keep_mask` draw over ``x``'s entries in C
    order: entry i is kept iff the i-th 16-bit quarter of the ceil(n / 4)
    raw 64-bit words drawn from ``rng`` is >= ceil(rate * 2**16).  With
    ``rate`` 0 nothing is drawn and ``x`` itself comes back.  One graph
    node; it keeps the boolean mask and applies the mask's scale on the
    fly in both directions, as the entries pass.
    """
    if rate <= 0.0:
        return x
    keep, scale = _keep_mask(rng, x.shape, rate, x.data.dtype)
    out = Tensor(_dropped(x.data, keep, scale))

    def _bw():
        if x.requires_grad:
            _accumulate(x, _dropped(out.grad, keep, scale))

    return _track(out, (x,), _bw)


# ---------------------------------------------------------------------------
# gradient verification


def gradcheck(f, xs, eps: float = 1e-5) -> float:
    """Compare analytic gradients of scalar-valued ``f`` against central differences.

    ``xs`` is one tensor or a sequence; every coordinate of every tensor is
    perturbed.  Returns the maximum relative error
    ``(|a - n| - r) / max(|a|, |n|, 1e-8)`` over all coordinates, floored
    at 0, where r is the numeric derivative's resolution: one unit in the
    last place of the larger of the two float64 losses, over ``2 * eps``.
    A central difference cannot tell two gradients apart by less than r
    (about 1e-11 for a loss near 1), so a coordinate whose gradient is
    near zero is not failed for the rounding of the losses.
    """
    xs = [xs] if isinstance(xs, Tensor) else list(xs)
    return gradcheck_sampled(f, xs, max(x.data.size for x in xs), rng=None, eps=eps)


def _coordinate_error(f, xs, flat, analytic_i, i, eps) -> float:
    saved = flat[i]
    flat[i] = saved + eps
    f_plus = float(f(*xs).data)
    flat[i] = saved - eps
    f_minus = float(f(*xs).data)
    flat[i] = saved
    numeric = (f_plus - f_minus) / (2.0 * eps)
    resolution = float(np.spacing(max(abs(f_plus), abs(f_minus)))) / (2.0 * eps)
    return (max(abs(analytic_i - numeric) - resolution, 0.0)
            / max(abs(analytic_i), abs(numeric), 1e-8))


def gradcheck_sampled(f, tensors, per_tensor: int, rng: np.random.Generator, eps: float = 1e-5) -> float:
    """Gradcheck over a random sample of coordinates from each tensor.

    Used for whole models, where exhaustive finite differences would be
    intractable; every tensor still contributes ``per_tensor`` coordinates,
    and one with at most ``per_tensor`` contributes all of them (``rng`` is
    then unused).
    """
    tensors = list(tensors)
    for x in tensors:
        x.data = np.ascontiguousarray(x.data)
        x.grad = None
    backward(f(*tensors))
    analytic = [x.grad.copy() if x.grad is not None else np.zeros_like(x.data) for x in tensors]
    worst = 0.0
    for x, a in zip(tensors, analytic):
        flat = x.data.reshape(-1)
        a_flat = a.reshape(-1)
        n = flat.size
        picks = np.arange(n) if n <= per_tensor else rng.choice(n, size=per_tensor, replace=False)
        for i in picks:
            worst = max(worst, _coordinate_error(f, tensors, flat, a_flat[i], int(i), eps))
    return worst
