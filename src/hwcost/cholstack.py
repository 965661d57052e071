"""Cholesky factors of a stack of covariance matrices over shared points,
each grown by one row when a point joins.

When a point joins, every matrix K over the earlier points is bordered by
one row and column (k, kappa), and so is its factor: the new row is
[l, delta] with l = L^-1 k and delta = sqrt(kappa - l.l) (Rasmussen &
Williams 2006, app. A.4). That costs O(n^2) per matrix in place of a fresh
O(n^3) factorization. The same forward substitution gives each factor's
L^-1 ys, which the stack keeps, and its matrix's log likelihood of ys.

Every forward substitution, the stack's and a GP state's posterior
L^-1 k*, is `substitute` on factors packed as CholeskyStack packs them.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 8  # rows per block of forward substitution and of a stored factor
_UPPER = ~np.tri(BLOCK, dtype=bool)   # above a block's diagonal


def substitute(blocks, inverses, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs for the lower triangle L packed as a CholeskyStack packs it.
    Leading axes broadcast, so a stack of factors solves a stack of
    right-hand sides.

    Each BLOCK-row block of rhs is reduced by the rows already solved and
    multiplied by the inverse of its diagonal block D, so every step is a
    matmul. A product with D^-1 errs in proportion to D's condition, so
    each block takes one refinement step against D itself: that keeps the
    relative error within n * u * cond_2(L), as a plain substitution's.
    """
    x = np.empty(rhs.shape)
    for i0, block, inverse in zip(range(0, rhs.shape[-2], BLOCK), blocks, inverses):
        r = rhs[..., i0:i0 + BLOCK, :]
        rows = r.shape[-2]
        if i0:
            r = r - block[..., :rows, :i0] @ x[..., :i0, :]
        inverse = inverse[..., :rows, :rows]
        y = inverse @ r
        y += inverse @ (r - block[..., :rows, i0:i0 + rows] @ y)
        x[..., i0:i0 + rows, :] = y
    return x


class CholeskyStack:
    """Factors of matrices named by keys, all over the points `xn`.

    Factors are kept as lower triangles in blocks of BLOCK rows: block b is
    an array (matrices, BLOCK, (b + 1) * BLOCK) of rows [b, b + 1) * BLOCK
    up to the end of their diagonal block, and inverses[b], (matrices,
    BLOCK, BLOCK), holds the inverses of those diagonal blocks, zero past the
    last row, so one blocked forward substitution serves the whole stack.
    """

    def __init__(self):
        self.xn = np.zeros((0, 0))   # the points the factors are over
        self.keys: list = []
        self.params = np.zeros((0, 0))   # np.array(keys), rebuilt as they change
        self.logdet = np.zeros(0)    # log det of each factor
        self.w = np.zeros((0, 0))    # L^-1 ys of each factor, ys last scored
        self.blocks: list[np.ndarray] = []
        self.inverses: list[np.ndarray] = []

    @staticmethod
    def pack(L: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """One factor as the stack's blocks and diagonal-block inverses, each
        with a leading axis of 1."""
        blocks = CholeskyStack.split(L)
        return blocks, _diagonal_inverses(blocks, L.shape[0])

    @staticmethod
    def split(L: np.ndarray) -> list[np.ndarray]:
        """One factor as the stack's blocks, each with a leading axis of 1."""
        n = L.shape[0]
        size = -(-n // BLOCK) * BLOCK
        padded = np.zeros((size, size))
        padded[:n, :n] = L
        return [padded[None, i0:i0 + BLOCK, :i0 + BLOCK].copy() for i0 in range(0, size, BLOCK)]

    def extend(self, Xn: np.ndarray, ys: np.ndarray, bordering) -> dict:
        """Border every factor for the last point of Xn and score it.

        `bordering(params, Xn)` gives each matrix's new column against the
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
        k, corner = bordering(self.params, Xn)
        rhs = np.empty((len(self.keys), m, 2))   # [k, ys[:m]] for each matrix
        rhs[:, :, 0] = k
        rhs[:, :, 1] = ys[:m]
        x = substitute(self.blocks, self.inverses, rhs)   # L^-1 rhs
        l, w = x[:, :, 0], x[:, :, 1]
        d2 = corner - np.einsum("ti,ti->t", l, l)
        ok = d2 > 0.0
        delta = np.sqrt(np.where(ok, d2, 1.0))
        w_last = (ys[m] - np.einsum("ti,ti->t", l, w)) / delta
        self.logdet = self.logdet + np.log(delta)
        self.w = np.concatenate([w, w_last[:, None]], axis=1)
        lml = (-0.5 * (np.einsum("ti,ti->t", w, w) + w_last * w_last) - self.logdet
               - 0.5 * (m + 1) * math.log(2 * math.pi))
        j = m % BLOCK   # the new row's place in its block
        if j == 0:
            self.blocks.append(np.zeros((len(self.keys), BLOCK, m + BLOCK)))
            self.inverses.append(np.zeros((len(self.keys), BLOCK, BLOCK)))
        row = self.blocks[-1][:, j]
        row[:, :m] = l
        row[:, m] = delta
        # the inverse of [[D, 0], [l_d, delta]] is [[D^-1, 0], [-l_d D^-1 / delta, 1 / delta]]
        inverse = self.inverses[-1]
        inverse[:, j, :j] = -(l[:, None, m - j:] @ inverse[:, :j, :j])[:, 0] / delta[:, None]
        inverse[:, j, j] = 1.0 / delta
        self.xn = Xn
        lml[~ok] = -math.inf
        return dict(zip(self.keys, lml.tolist()))

    def keep(self, Xn: np.ndarray, scored: dict, fresh: dict) -> None:
        """Hold exactly the keys of `scored` (key: log likelihood) that scored
        finite: a stored factor as it is, any other as `fresh[key]`,
        (split(L), log det of L, L^-1 ys), with L over Xn, all of whose
        diagonal blocks it inverts at once."""
        looked_up = [key for key, value in scored.items() if value > -math.inf]
        if looked_up == self.keys:
            return
        index = {key: t for t, key in enumerate(self.keys)}
        kept = [index[key] for key in looked_up if key in index]
        new = [key for key in looked_up if key in fresh]
        if not self.keys:
            self.blocks = [np.zeros((0, BLOCK, i0 + BLOCK))
                           for i0 in range(0, Xn.shape[0], BLOCK)]
            self.inverses = [np.zeros((0, BLOCK, BLOCK)) for _ in self.blocks]
            self.w = np.zeros((0, Xn.shape[0]))
        # block by block, so no more than one block is held twice
        for b, block in enumerate(self.blocks):
            self.blocks[b] = np.concatenate([block[kept], *(fresh[key][0][b] for key in new)])
        inverses = _diagonal_inverses([block[len(kept):] for block in self.blocks], Xn.shape[0])
        for b, inverse in enumerate(inverses):
            self.inverses[b] = np.concatenate([self.inverses[b][kept], inverse])
        self.logdet = np.concatenate([self.logdet[kept], [fresh[key][1] for key in new]])
        self.w = np.vstack([self.w[kept], *(fresh[key][2] for key in new)])
        self.keys = [self.keys[t] for t in kept] + new
        self.params = np.array(self.keys)
        self.xn = Xn


def _diagonal_inverses(blocks: list[np.ndarray], n: int) -> list[np.ndarray]:
    """The diagonal blocks' inverses of factors over n points packed as
    `blocks`, from one batched inversion: the last is padded with the
    identity, and each is zero above its diagonal and past the last row."""
    if not blocks:
        return []
    D = np.stack([block[..., -BLOCK:] for block in blocks])   # (blocks, factors, 8, 8)
    rows = n % BLOCK or BLOCK
    pad = np.arange(rows, BLOCK)
    D[-1, :, pad, pad] = 1.0
    inverses = np.linalg.inv(D)
    inverses[:, :, _UPPER] = 0.0
    inverses[-1, :, rows:] = 0.0
    return list(inverses)
