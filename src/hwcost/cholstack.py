"""Cholesky factors of a stack of covariance matrices over shared points,
each grown by one row when a point joins.

When a point joins, every matrix K over the earlier points is bordered by
one row and column (k, kappa), and so is its factor: the new row is
[l, delta] with l = L^-1 k and delta = sqrt(kappa - l.l) (Rasmussen &
Williams 2006, app. A.4). That costs O(n^2) per matrix in place of a fresh
O(n^3) factorization. The stack scores each matrix as a zero-mean Gaussian
log likelihood of the targets, which the same forward substitution gives.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 8  # rows per block of a stored factor: one batched matmul and solve each


class CholeskyStack:
    """Factors of matrices named by keys, all over the points `xn`.

    Factors are kept as lower triangles in blocks of BLOCK rows: block b is
    an array (matrices, BLOCK, (b + 1) * BLOCK) of rows [b, b + 1) * BLOCK
    up to the end of their diagonal block, so one blocked forward
    substitution serves the whole stack.
    """

    def __init__(self):
        self.xn = np.zeros((0, 0))   # the points the factors are over
        self.keys: list = []
        self.logdet = np.zeros(0)    # log det of each factor
        self.blocks: list[np.ndarray] = []

    @staticmethod
    def pack(L: np.ndarray) -> list[np.ndarray]:
        """One factor in the stack's blocks, each with a leading axis of 1."""
        n = L.shape[0]
        blocks = []
        for i0 in range(0, n, BLOCK):
            block = np.zeros((1, BLOCK, i0 + BLOCK))
            rows = L[i0:i0 + BLOCK, :i0 + BLOCK]
            block[0, :rows.shape[0], :rows.shape[1]] = rows
            blocks.append(block)
        return blocks

    def extend(self, Xn: np.ndarray, ys: np.ndarray, bordering) -> dict:
        """Border every factor for the last point of Xn and score it.

        `bordering(keys, Xn)` gives each matrix's new column against the
        earlier points, (matrices, n - 1), and its new diagonal entry.
        Returns log N(ys; 0, K) for each bordered K, by key, -inf where
        delta^2 <= 0. The stack must be over the points before the last;
        otherwise it is emptied and nothing is scored.
        """
        m = Xn.shape[0] - 1
        if not self.keys or self.xn.shape != (m, Xn.shape[1]) or \
                not np.array_equal(self.xn, Xn[:m]):
            self.__init__()
            return {}
        k, corner = bordering(self.keys, Xn)
        rhs = np.empty((len(self.keys), m, 2))   # [k, ys[:m]] for each matrix
        rhs[:, :, 0] = k
        rhs[:, :, 1] = ys[:m]
        x = np.empty_like(rhs)   # L^-1 rhs
        try:
            for i0, block in zip(range(0, m, BLOCK), self.blocks):
                rows = min(BLOCK, m - i0)
                r = rhs[:, i0:i0 + rows]
                if i0:
                    r = r - block[:, :rows, :i0] @ x[:, :i0]
                x[:, i0:i0 + rows] = np.linalg.solve(block[:, :rows, i0:i0 + rows], r)
        except np.linalg.LinAlgError:
            self.__init__()
            return {}
        l, w = x[:, :, 0], x[:, :, 1]
        d2 = corner - np.einsum("ti,ti->t", l, l)
        ok = d2 > 0.0
        delta = np.sqrt(np.where(ok, d2, 1.0))
        w_last = (ys[m] - np.einsum("ti,ti->t", l, w)) / delta
        self.logdet = self.logdet + np.log(delta)
        lml = (-0.5 * (np.einsum("ti,ti->t", w, w) + w_last * w_last) - self.logdet
               - 0.5 * (m + 1) * math.log(2 * math.pi))
        if m % BLOCK == 0:
            self.blocks.append(np.zeros((len(self.keys), BLOCK, m + BLOCK)))
        row = self.blocks[-1][:, m % BLOCK]
        row[:, :m] = l
        row[:, m] = delta
        self.xn = Xn
        return {key: float(v) if good else -math.inf
                for key, v, good in zip(self.keys, lml.tolist(), ok.tolist())}

    def keep(self, Xn: np.ndarray, scored: dict, fresh: dict) -> None:
        """Hold exactly the keys of `scored` (key: log likelihood) that scored
        finite: a stored factor as it is, any other as `fresh[key]`, (pack(L),
        log det of L), with L over Xn."""
        looked_up = [key for key, value in scored.items() if value > -math.inf]
        index = {key: t for t, key in enumerate(self.keys)}
        kept = [index[key] for key in looked_up if key in index]
        new = [key for key in looked_up if key in fresh]
        if kept == list(range(len(self.keys))) and not new:
            return
        if not self.keys:
            self.blocks = [np.zeros((0, BLOCK, i0 + BLOCK))
                           for i0 in range(0, Xn.shape[0], BLOCK)]
        # block by block, so no more than one block is held twice
        for b, block in enumerate(self.blocks):
            self.blocks[b] = np.concatenate([block[kept], *(fresh[key][0][b] for key in new)])
        self.logdet = np.concatenate([self.logdet[kept], [fresh[key][1] for key in new]])
        self.keys = [self.keys[t] for t in kept] + new
        self.xn = Xn
