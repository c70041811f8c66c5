"""Small neural building blocks on the tape: GRU cell, MLP, linear layer.

Each layer owns a name prefix inside a ParamStore and operates on (B, d)
batches.  Each forward call is one fused tape node (autodiff.gru_step,
autodiff.mlp, autodiff.linear), so a layer costs one node whatever its
depth.  Weight layout for the GRU is fused: wx (in, 3H) and wh (H, 3H)
hold the reset, update, and candidate blocks side by side.
"""

import numpy as np

from . import autodiff as ad
from .params import uniform_init


class GRUCell:
    """Gated recurrent unit.

    next = u * prev + (1 - u) * cand, with reset gate r applied to the
    hidden contribution of the candidate.  With all-zero weights the update
    halves the previous state, so a zero initial state stays zero.
    """

    def __init__(self, prefix, in_dim, hidden):
        self.prefix = prefix
        self.in_dim = in_dim
        self.hidden = hidden

    def init(self, store, tag, rng):
        h = self.hidden
        store.create(f"{self.prefix}.wx", uniform_init(rng, (self.in_dim, 3 * h), self.in_dim), tag)
        store.create(f"{self.prefix}.wh", uniform_init(rng, (h, 3 * h), h), tag)
        store.create(f"{self.prefix}.b", np.zeros(3 * h), tag)

    def step(self, store, prev, x):
        """prev (B,H), x (B,in) -> (B,H), one fused tape node."""
        p = self.prefix
        return ad.gru_step(prev, x, store.node(f"{p}.wx"),
                           store.node(f"{p}.wh"), store.node(f"{p}.b"))


class Linear:
    def __init__(self, prefix, in_dim, out_dim):
        self.prefix = prefix
        self.in_dim = in_dim
        self.out_dim = out_dim

    def init(self, store, tag, rng):
        store.create(f"{self.prefix}.w", uniform_init(rng, (self.in_dim, self.out_dim), self.in_dim), tag)
        store.create(f"{self.prefix}.b", np.zeros(self.out_dim), tag)

    def apply(self, store, x):
        """x (B, in) -> (B, out), one fused tape node."""
        return ad.linear(x, store.node(f"{self.prefix}.w"),
                         store.node(f"{self.prefix}.b"))


class MLP:
    """Dense stack with tanh hidden activations and a linear output."""

    def __init__(self, prefix, dims, out_tanh=False):
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.prefix = prefix
        self.dims = list(dims)
        self.out_tanh = out_tanh
        self.layers = [
            Linear(f"{prefix}.l{i}", dims[i], dims[i + 1]) for i in range(len(dims) - 1)
        ]

    def init(self, store, tag, rng):
        for layer in self.layers:
            layer.init(store, tag, rng)

    def apply(self, store, x):
        """x (B, dims[0]) -> (B, dims[-1]), one fused tape node."""
        weights = [(store.node(f"{layer.prefix}.w"), store.node(f"{layer.prefix}.b"))
                   for layer in self.layers]
        return ad.mlp(x, weights, self.out_tanh)
