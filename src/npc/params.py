"""Named parameter storage, seeded initialization, Adamax, checkpoint records.

Parameters live in a ParamStore under unique names, each tagged 'psi'
(controller side) or 'phi' (continuous-model side).  A forward pass asks
the store for leaf nodes; after backward() the store collects gradients
aligned with its insertion order.  to_records gives the (name, tag,
shape, values) records a ModelBundle checkpoint stores; they round-trip
exactly, since json serializes floats with shortest round-trip repr.
"""

import numpy as np

from . import autodiff as ad

TAGS = ("psi", "phi")


class Parameter:
    __slots__ = ("name", "tag", "value")

    def __init__(self, name, tag, value):
        self.name = name
        self.tag = tag
        self.value = value


class ParamStore:
    """Ordered map of named float64 parameter arrays."""

    def __init__(self):
        self._params = {}
        self._leaves = {}

    def create(self, name, value, tag):
        if name in self._params:
            raise ValueError(f"parameter {name!r} already exists")
        if tag not in TAGS:
            raise ValueError(f"tag must be one of {TAGS}, got {tag!r}")
        self._params[name] = Parameter(name, tag, np.asarray(value, dtype=np.float64))

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self, tag=None):
        if tag is None:
            return list(self._params)
        return [n for n, p in self._params.items() if p.tag == tag]

    def tag(self, name):
        return self._params[name].tag

    def value(self, name):
        return self._params[name].value

    def set_value(self, name, value):
        p = self._params[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != p.value.shape:
            raise ValueError(
                f"parameter {name!r} has shape {p.value.shape}, got {value.shape}"
            )
        p.value = value

    def node(self, name):
        """Leaf node for the current tape (cached until new_tape)."""
        node = self._leaves.get(name)
        if node is None or node.value is not self._params[name].value:
            node = ad.leaf(self._params[name].value)
            # leaf() copies via asarray only if dtype differs; keep the exact
            # array so updates invalidate the cache naturally
            node.value = self._params[name].value
            self._leaves[name] = node
        return node

    def new_tape(self):
        self._leaves.clear()

    def gradients(self, tag=None):
        """Accumulated adjoints per parameter, zeros where untouched."""
        out = {}
        for name in self.names(tag):
            node = self._leaves.get(name)
            if node is None or node.grad is None:
                out[name] = np.zeros_like(self._params[name].value)
            else:
                out[name] = node.grad
        return out

    # -- serialization ------------------------------------------------------

    def to_records(self):
        return [
            {
                "name": p.name,
                "tag": p.tag,
                "shape": list(p.value.shape),
                "values": p.value.ravel().tolist(),
            }
            for p in self._params.values()
        ]


def uniform_init(rng, shape, fan_in):
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)), the default weight init."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Adamax:
    """Adamax: EMA first moment, infinity-norm second moment.

    step size = lr / (1 - beta1^t) * m / (u + eps).  A zero gradient leaves
    parameters untouched; a non-finite gradient raises, naming the offender.
    """

    def __init__(self, store, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {}
        self._u = {}

    def step(self, grads, skip_prefixes=()):
        self.t += 1
        scale = self.lr / (1.0 - self.beta1 ** self.t)
        for name in self.store.names():
            g = grads.get(name)
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            if any(name.startswith(p) for p in skip_prefixes):
                continue
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self._u[name] = np.zeros_like(g)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            u = np.maximum(self.beta2 * self._u[name], np.abs(g))
            self._m[name] = m
            self._u[name] = u
            p = self.store.value(name)
            self.store.set_value(name, p - scale * m / (u + self.eps))
