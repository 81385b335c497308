"""Minimal Adam over named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Adam:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One update; returns the new parameter dict (inputs untouched)."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        out = {}
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            # the moments are owned here and updated in place, with the same
            # roundings as beta1 * m + (1 - beta1) * g and
            # beta2 * v + (1 - beta2) * g * g
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), one temporary per term
            step = m / bc1
            step *= self.lr
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            new = p.astype(np.float64)
            new -= step
            out[name] = new.astype(p.dtype)
        return out
