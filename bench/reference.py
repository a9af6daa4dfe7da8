"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a share of a busy machine: its speed drifts by tens
of percent over seconds to minutes, and every workload slows and speeds up
with it. Timing this kernel between the workload's operations gives the
host's speed over the same window, and the end-to-end times are reported in
units of one reference block, which cancels most of the drift (on a 2-vCPU
Xeon VM, 20-second means of invert-design and train-discovery operations
correlated 0.90-0.93 with the interleaved reference blocks, and their ratio
spread half as much as the raw times).

The kernel uses only numpy and none of the package, so a change to the
package moves the workload's time and never the reference. It mixes what
the workloads do: a 900-row softplus network forward and backward pass,
the same pass on 60 rows where per-call overhead dominates, 1024-row 3x3
tensor algebra, and scalar Python arithmetic.
"""

from __future__ import annotations

import time

import numpy as np

BLOCK_STEPS = 50  # one reference block; about 0.35 s on a 2-vCPU Xeon VM
SMALL_PASSES = 8  # 60-row network passes per step
TENSOR_ROWS = 1024


def _softplus_sigmoid(z):
    e = np.exp(-np.abs(z))
    sig = 1.0 / (1.0 + e)
    neg = z < 0
    sig[neg] = 1.0 - sig[neg]
    return np.log1p(e) + np.maximum(z, 0.0), sig


class Reference:
    """The reference kernel on inputs fixed by its own seed."""

    def __init__(self):
        rng = np.random.default_rng(20240917)
        self.x = rng.standard_normal((900, 9))
        self.y = rng.standard_normal((900, 2))
        self.wx = [rng.standard_normal((9, 24)) * 0.3, rng.standard_normal((24, 24)) * 0.2,
                   rng.standard_normal((24, 24)) * 0.2]
        self.wy = [rng.standard_normal((2, 16)) * 0.3, rng.standard_normal((16, 24)) * 0.3]
        self.w_out = rng.standard_normal(24) ** 2
        F = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (TENSOR_ROWS, 3, 3))
        self.C = np.einsum("bki,bkj->bij", F, F)

    def _network(self, rows=None):
        x, y = (self.x, self.y) if rows is None else (self.x[:rows], self.y[:rows])
        y, _ = _softplus_sigmoid(y @ self.wy[0])
        y, _ = _softplus_sigmoid(y @ self.wy[1])
        hs, sigs = [x], []
        for W in self.wx:
            h, sig = _softplus_sigmoid(hs[-1] @ W + y)
            hs.append(h)
            sigs.append(sig)
        g = np.broadcast_to(self.w_out, hs[-1].shape).copy()
        total = 0.0
        for k in range(len(self.wx) - 1, -1, -1):
            g = g * sigs[k]
            total += float((hs[k].T @ g).sum())
            g = g @ self.wx[k].T
        return total + float(g.sum())

    def _small_chains(self):
        return sum(self._network(rows=60) for _ in range(SMALL_PASSES))

    def _tensors(self):
        C = self.C
        I1 = np.trace(C, axis1=1, axis2=2)
        I2 = 0.5 * (I1 ** 2 - np.trace(np.einsum("bij,bjk->bik", C, C), axis1=1, axis2=2))
        inv = np.linalg.inv(C)
        det = np.linalg.det(C)
        outer = np.einsum("bij,bkl->bijkl", inv, inv).reshape(-1, 9, 9)
        total = float(outer.sum())
        for i in range(20):
            total += float(C[i, 0, 0] * det[i]) + float(I2[i])
        return total

    def step(self):
        return self._network() + self._small_chains() + self._tensors()

    def block(self):
        """Seconds taken by one block of ``BLOCK_STEPS`` steps."""
        t = time.perf_counter()
        for _ in range(BLOCK_STEPS):
            self.step()
        return time.perf_counter() - t
