"""Parameterized layers on top of the autograd engine.

Modules track their parameters and submodules through attribute assignment,
so named parameters, train/eval switching, and checkpoint state all fall out
of the object tree.  Affine weights use scaled uniform fan-in initialization;
biases start at zero unless a layer documents otherwise.  Initial values are
drawn in float64 and rounded to the dtype that ``build_in`` sets as they are
drawn.  Under ``skip_init`` a module tree is built without them, for a restore.
"""

import contextlib
import math
import os

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ShapeError, ValidationError


class Module:
    """Base class: tracks parameters and child modules by attribute name."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._modules.items():
            yield from child.named_parameters(prefix + name + ".")

    def modules(self):
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def trainable_named_parameters(self):
        return ((name, p) for name, p in self.named_parameters() if p.requires_grad)

    def train(self, mode=True):
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self):
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state, adopt=False):
        """Copy named arrays into the parameters, in place and cast to each
        parameter's dtype.

        With ``adopt``, an array that already has its parameter's dtype and
        is writable and C-contiguous becomes the parameter's ``data`` instead
        of being copied, so the caller hands it over; a checkpoint's records
        are in its model's precision, so a restore adopts every one.
        Parameters an optimizer holds must not be adopted into: they view its
        arena."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise ValidationError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in own.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ShapeError(f"parameter {name}: stored {arr.shape} vs model {p.data.shape}")
            if (adopt and arr.dtype == p.data.dtype and arr.flags.writeable
                    and arr.flags.c_contiguous and arr.flags.aligned):
                p.data = arr
            else:
                p.data[...] = arr


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        self._items = []
        for i, m in enumerate(modules):
            setattr(self, str(i), m)
            self._items.append(m)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


_build = (np.dtype(np.float64), False)  # new parameters' dtype; whether they are left unfilled


@contextlib.contextmanager
def build_in(dtype, *, _skip=None):
    """Build modules in ``dtype`` inside the block: the float64 build's
    values, each rounded as it is drawn (unfilled inside ``skip_init``)."""
    global _build
    saved = _build
    _build = (np.dtype(dtype), saved[1] if _skip is None else _skip)
    try:
        yield
    finally:
        _build = saved


def skip_init(dtype):
    """Build modules without initial values inside the block.

    Every parameter is allocated in ``dtype`` and left unfilled: no
    generator is drawn from and no constant is written, so a restore pays
    for one array per parameter, in its final dtype.  Only
    ``load_state_dict``, which refuses a missing record, may follow.
    """
    return build_in(dtype, _skip=True)


_MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _initial(shape, fill) -> np.ndarray:
    """A new parameter in the build's dtype: the constant ``fill``, or what
    the callable ``fill`` draws in float64, rounded; inside ``skip_init``,
    unfilled.  One whose float64 draw exceeds the machine's memory is
    refused unallocated, inside ``skip_init`` too."""
    dtype, skip = _build
    size = math.prod(shape if isinstance(shape, tuple) else (shape,)) * 8
    if size > _MEMORY_BYTES:
        raise ValidationError(f"a parameter of shape {shape} needs {size / 2**30:.4g} GiB, "
                              f"more than this machine's {_MEMORY_BYTES / 2**30:.4g} GiB of memory")
    if skip:
        return np.empty(shape, dtype=dtype)
    return fill().astype(dtype, copy=False) if callable(fill) else np.full(shape, fill, dtype)


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return _initial(shape, lambda: rng.uniform(-bound, bound, size=shape))


class Linear(Module):
    """Affine map y = x W + b on the last axis of a 1-D or 2-D input.

    ``bias`` is the number of leading output columns that have a bias (all
    of them by default); the rest get none."""

    def __init__(self, n_in, n_out, rng, bias: int | None = None):
        super().__init__()
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Tensor(fan_in_uniform(rng, (n_in, n_out), n_in), requires_grad=True)
        self.bias = Tensor(_initial(n_out if bias is None else bias, 0.0), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        squeeze = x.ndim == 1
        if squeeze:
            x = ag.reshape(x, (1, x.shape[0]))
        out = ag.matmul(x, self.weight, bias=self.bias)
        return ag.reshape(out, (self.n_out,)) if squeeze else out


class LayerNorm(Module):
    """Row-wise layer norm; ``norm(x, residual)`` normalizes ``x + residual``
    in the same node."""

    def __init__(self, dim, eps=1e-5):
        super().__init__()
        self.eps = eps
        self.gain = Tensor(_initial(dim, 1.0), requires_grad=True)
        self.bias = Tensor(_initial(dim, 0.0), requires_grad=True)

    def __call__(self, x: Tensor, residual: Tensor = None) -> Tensor:
        return ag.layer_norm(x, self.gain, self.bias, eps=self.eps, residual=residual)


class Embedding(Module):
    """Lookup table; an optional padding row is held at zero and never trained."""

    def __init__(self, n_rows, dim, rng, pad_id=None):
        super().__init__()
        self.pad_id = pad_id
        table = _initial((n_rows, dim), lambda: rng.standard_normal((n_rows, dim)) / math.sqrt(dim))
        if pad_id is not None:
            table[pad_id] = 0.0
        self.table = Tensor(table, requires_grad=True)

    def __call__(self, ids) -> Tensor:
        return ag.embedding_rows(self.table, ids, frozen_row=self.pad_id)


class Conv1d(Module):
    """Time-axis same-padding cross-correlation layer, its bias (if any)
    added in the same node; see autograd.conv1d."""

    def __init__(self, width, c_in, c_out, rng, bias=True):
        super().__init__()
        self.kernels = Tensor(fan_in_uniform(rng, (width, c_in, c_out), width * c_in), requires_grad=True)
        self.bias = Tensor(_initial(c_out, 0.0), requires_grad=True) if bias else None

    def __call__(self, x: Tensor, segs: ag.Segments) -> Tensor:
        return ag.conv1d(x, self.kernels, segs, bias=self.bias)


class Dropout(Module):
    """Inverted dropout, active only while the owning module is in train mode."""

    def __init__(self, rate, rng):
        super().__init__()
        self.rate = rate
        self.rng = rng

    def __call__(self, x: Tensor) -> Tensor:
        if not self.training or self.rate <= 0.0:
            return x
        return ag.dropout(x, self.rate, self.rng)


_POSITION_TABLES = {}  # (width, dtype) -> read-only table, grown on demand


def sinusoidal_positions(length: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed sine/cosine position signal, one row per time step.

    Rows are computed once per width and dtype: the table grows (at least
    doubling) when a longer one is asked for, and callers get a read-only
    slice.  Entries are computed in float64, then rounded to ``dtype``, and
    each depends only on its row and column, so a row reads the same
    whatever the table's length.
    """
    key = (dim, np.dtype(dtype))
    table = _POSITION_TABLES.get(key)
    if table is None or len(table) < length:
        rows = max(length, 2 * len(table)) if table is not None else length
        position = np.arange(rows)[:, None].astype(np.float64)
        div = np.exp(np.arange(0, dim, 2) * (-math.log(10000.0) / dim))
        table = np.zeros((rows, dim))
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div[: dim // 2])
        table = table.astype(dtype, copy=False)
        table.flags.writeable = False
        _POSITION_TABLES[key] = table
    return table[:length]


def add_positions(x: Tensor, segs) -> Tensor:
    """Add the sinusoidal position signal, in ``x``'s dtype, to a [T, D]
    stream laid out by ``segs`` (``autograd.Segments``): positions count
    from 0 in each segment."""
    table = sinusoidal_positions(int(segs.lengths.max()), x.shape[1], x.data.dtype)
    return ag.add(x, Tensor(table[segs.positions()]))
