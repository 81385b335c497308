"""Minimal Adam over named parameter dictionaries. The learning rate is its
one setting; the decay rates and epsilon are the usual constants."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9    # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8     # added to the denominator's square root


@dataclass
class Adam:
    lr: float
    t: int = field(default=0, init=False)
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One update; returns the new parameter dict (inputs untouched)."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        out = {}
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            # the moments are owned here and updated in place, with the same
            # roundings as BETA1 * m + (1 - BETA1) * g and
            # BETA2 * v + (1 - BETA2) * g * g
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), one temporary per term
            step = m / bc1
            step *= self.lr
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            new = p.astype(np.float64)
            new -= step
            out[name] = new.astype(p.dtype)
        return out
