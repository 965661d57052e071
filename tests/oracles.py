"""Independent oracles the tests check the library against.

Everything here is written from first principles (explicit enumeration,
dense linear algebra, quadrature) and deliberately avoids the library's own
formulas.
"""

import math

import numpy as np


def valid_placements(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Count kernel placements by walking the padded extent."""
    count = 0
    start = -padding
    while start + kernel <= extent + padding:
        count += 1
        start += stride
    return count


def conv_loopnest(batch, in_c, in_h, in_w, k_h, k_w, stride, padding, out_c):
    """Explicit 7-deep loop-nest enumeration of conv MACs plus element counts."""
    out_h = valid_placements(in_h, k_h, stride, padding)
    out_w = valid_placements(in_w, k_w, stride, padding)
    macs = 0
    for _n in range(batch):
        for _o in range(out_c):
            for _y in range(out_h):
                for _x in range(out_w):
                    for _c in range(in_c):
                        for _u in range(k_h):
                            for _v in range(k_w):
                                macs += 1
    params = 0
    for _o in range(out_c):
        for _c in range(in_c):
            for _u in range(k_h):
                for _v in range(k_w):
                    params += 1
    input_elems = 0
    for _n in range(batch):
        for _c in range(in_c):
            for _y in range(in_h):
                for _x in range(in_w):
                    input_elems += 1
    output_elems = batch * out_c * out_h * out_w
    return {
        "macs": macs,
        "params": params,
        "input_reads": input_elems,
        "weight_reads": params,
        "output_writes": output_elems,
        "out_h": out_h,
        "out_w": out_w,
    }


def fc_loopnest(batch, in_units, out_units):
    macs = 0
    for _n in range(batch):
        for _i in range(in_units):
            for _o in range(out_units):
                macs += 1
    params = in_units * out_units
    return {
        "macs": macs,
        "params": params,
        "input_reads": batch * in_units,
        "weight_reads": params,
        "output_writes": batch * out_units,
    }


def pool_loopnest(batch, channels, in_h, in_w, k_h, k_w, stride, padding):
    out_h = valid_placements(in_h, k_h, stride, padding)
    out_w = valid_placements(in_w, k_w, stride, padding)
    comparisons = 0
    for _n in range(batch):
        for _c in range(channels):
            for _y in range(out_h):
                for _x in range(out_w):
                    for _u in range(k_h):
                        for _v in range(k_w):
                            comparisons += 1
    return {
        "flops": comparisons,
        "input_reads": batch * channels * in_h * in_w,
        "output_writes": batch * channels * out_h * out_w,
        "out_h": out_h,
        "out_w": out_w,
    }


def output_shape_reference(layer) -> tuple[int, int, int, int]:
    """(N, C, H, W) of `layer`'s output from the closed-form extent
    (in + 2 * padding - kernel) // stride + 1; an fc layer gives N x units x 1 x 1."""
    s = layer.input
    if layer.kind.value == "fc":
        return (s.batch, layer.output_units, 1, 1)
    oh = (s.height + 2 * layer.padding - layer.kernel_h) // layer.stride + 1
    ow = (s.width + 2 * layer.padding - layer.kernel_w) // layer.stride + 1
    channels = layer.output_channels if layer.kind.value == "conv" else s.channels
    return (s.batch, channels, oh, ow)


def format_network(net) -> str:
    """The layer-chain text of `net`, one `name kind key=value ...` line per
    layer, for round trips through netgraph.parse_network."""
    lines = []
    for i, layer in enumerate(net.layers):
        kind = layer.kind.value
        parts = [layer.name, kind]
        if i == 0:
            s = layer.input
            parts.append(f"in={s.batch}x{s.channels}x{s.height}x{s.width}")
        if kind in ("conv", "pool"):
            parts += [f"k={layer.kernel_h}x{layer.kernel_w}", f"s={layer.stride}",
                      f"p={layer.padding}"]
        if kind == "conv":
            parts.append(f"out={layer.output_channels}")
        elif kind == "fc":
            parts.append(f"out={layer.output_units}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def ei_quadrature(mean: float, sd: float, y_best: float, points: int = 40_001) -> float:
    """Simpson integration of the improvement integral for N(mean, sd^2).

    Integrates (y_best - y) * pdf(y) over y below y_best via the
    standardized variable t = (y - mean)/sd.
    """
    u = (y_best - mean) / sd
    lo = min(u, 0.0) - 14.0
    t = np.linspace(lo, u, points)
    integrand = (u - t) * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    h = (u - lo) / (points - 1)
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return sd * float(h / 3.0 * np.dot(weights, integrand))


def matern52_oracle(a, b, lengthscales, signal_var):
    r = math.sqrt(sum(((ai - bi) / li) ** 2 for ai, bi, li in zip(a, b, lengthscales)))
    sr = math.sqrt(5.0) * r
    return signal_var * (1.0 + sr + sr * sr / 3.0) * math.exp(-sr)


def matern52_matrix_reference(Xa, Xb, lengthscales, signal_var):
    """Matérn-5/2 kernel matrix as the plain whole-array expression.

    Each step allocates its own temporary, in the operation order the
    library's in-place kernel must keep, so the two agree bit for bit.
    """
    r2 = np.zeros((Xa.shape[0], Xb.shape[0]))
    for d, scale in enumerate(lengthscales):
        t = (Xa[:, d, None] - Xb[None, :, d]) / scale
        r2 += t * t
    return signal_var * matern52_correlation_reference(r2)


def matern52_correlation_reference(r2):
    """Matérn-5/2 correlation at squared scaled distances, plain expression."""
    sr = math.sqrt(5.0) * np.sqrt(np.maximum(r2, 0.0))
    return (1.0 + sr + sr * sr / 3.0) * np.exp(-sr)


def gp_posterior_dense(train_x, train_y, query, lengthscales, signal_var, noise_var,
                       prior_mean):
    """GP posterior via an explicit dense matrix inverse."""
    n = len(train_x)
    K = np.array([[matern52_oracle(a, b, lengthscales, signal_var) for b in train_x]
                  for a in train_x]) + noise_var * np.eye(n)
    K_inv = np.linalg.inv(K)
    k_star = np.array([matern52_oracle(query, b, lengthscales, signal_var) for b in train_x])
    resid = np.array(train_y) - prior_mean
    mean = prior_mean + k_star @ K_inv @ resid
    var = matern52_oracle(query, query, lengthscales, signal_var) - k_star @ K_inv @ k_star
    return float(mean), float(var)


def select_hypers_dense(X, y, lengthscale_grid, signal_grid, noise_grid, start=None):
    """Coordinate-wise grid ascent of the GP log marginal likelihood.

    Two passes over (each lengthscale, signal variance, noise variance),
    starting from `start` (lengthscales, signal variance, noise variance)
    or, when it is None, from the middle of each grid, each trial scored
    from a freshly built dense Matérn-5/2 matrix: its Cholesky factor gives
    the log determinant and an LU solve of the full matrix the quadratic
    form. A trial whose matrix is not positive definite scores -inf; ties
    keep the earliest grid point.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, dim = X.shape

    def lml(lengthscales, signal_var, noise_var):
        diff = (X[:, None, :] - X[None, :, :]) / np.asarray(lengthscales)
        sr = math.sqrt(5.0) * np.linalg.norm(diff, axis=2)
        K = signal_var * (1.0 + sr + sr * sr / 3.0) * np.exp(-sr) + noise_var * np.eye(n)
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            return -math.inf
        return (-0.5 * y @ np.linalg.solve(K, y) - np.sum(np.log(np.diag(L)))
                - 0.5 * n * math.log(2.0 * math.pi))

    def best(grid, scores):
        return grid[scores.index(max(scores))]

    if start is None:
        start = ([lengthscale_grid[3]] * dim, signal_grid[3], noise_grid[3])
    ls, s2f, s2n = list(start[0]), start[1], start[2]
    for _ in range(2):
        for d in range(dim):
            ls[d] = best(lengthscale_grid, [lml(ls[:d] + [c] + ls[d + 1:], s2f, s2n)
                                            for c in lengthscale_grid])
        s2f = best(signal_grid, [lml(ls, c, s2n) for c in signal_grid])
        s2n = best(noise_grid, [lml(ls, s2f, c) for c in noise_grid])
    return tuple(ls), s2f, s2n


def design_matrix_reference(features, exponents, specials):
    """Polynomial design columns as one `np.prod` over the features per term,
    then the special-term columns: the plain expression whose multiplication
    order the library's feature-by-feature build must keep, bit for bit."""
    cols = [np.prod(features ** np.asarray(e, dtype=float), axis=1) for e in exponents]
    return np.column_stack(cols + [specials[:, 0], specials[:, 1]])


def poly_predict_reference(model, features, specials):
    """A polynomial model's unclamped value at one feature vector, as first
    written: each term's coefficient times its nonzero powers, feature by
    feature, the terms summed in order, then each special term's coefficient
    times its value (`specials` maps the special term to it). A float power
    past the range raises OverflowError in Python, which gives inf."""
    total = 0.0
    try:
        for term, coef in model.terms:
            for xi, qi in zip(features, term):
                if qi:
                    coef *= xi ** qi
            total += coef
        for name, coef in model.special:
            total += coef * specials[name]
    except OverflowError:
        total = math.inf
    return total


def lasso_homotopy_reference(gram, corr, lambdas, schur_tol=1e-10):
    """The homotopy lasso path as first written, one event at a time.

    Same rules as `polyreg._lasso_homotopy` (join ties to the lowest index, a
    column whose Schur complement is at most `schur_tol` never joins, a
    just-dropped column cannot rejoin on the same side at the same lambda),
    but each event gathers G_AA afresh, factors it by Cholesky and solves
    with the triangular factors, with plain lists for the active set.
    """
    out = np.zeros((len(lambdas), len(corr)))
    active, signs = [], []
    blocked = np.zeros(len(corr), dtype=bool)
    dropped = None  # (column, sign, lam) of the last drop
    lam = float(np.max(np.abs(corr), initial=0.0))
    row = 0
    for _ in range(100 * len(corr) + 1):
        idx, s = np.asarray(active, dtype=np.intp), np.asarray(signs)
        chol = np.linalg.cholesky(gram[np.ix_(idx, idx)])
        a, d = np.linalg.solve(chol.T, np.linalg.solve(chol, np.column_stack([corr[idx], s]))).T
        beta = a - lam * d
        r = corr - gram[:, idx] @ beta
        q = gram[:, idx] @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            to_upper = np.where(q < 1.0 - 1e-12, np.maximum(lam - r, 0.0) / (1.0 - q), np.inf)
            to_lower = np.where(q > 1e-12 - 1.0, np.maximum(lam + r, 0.0) / (1.0 + q), np.inf)
            to_zero = np.where(s * d < 0.0, np.maximum(-beta / d, 0.0), np.inf)
        if dropped is not None and dropped[2] == lam:
            (to_upper if dropped[1] > 0 else to_lower)[dropped[0]] = np.inf
        to_join = np.where(blocked, np.inf, np.minimum(to_upper, to_lower))
        to_join[idx] = np.inf
        t_join, t_drop = to_join.min(initial=np.inf), to_zero.min(initial=np.inf)
        next_lam = lam - min(t_join, t_drop, lam)
        while row < len(lambdas) and lambdas[row] >= next_lam:
            coef = a - lambdas[row] * d
            out[row, idx] = np.where(coef * s > 0.0, coef, 0.0)
            row += 1
        if row == len(lambdas):
            break
        lam = next_lam
        if t_drop <= t_join:
            k = int(np.argmin(to_zero))
            dropped = (active.pop(k), signs.pop(k), lam)
        else:
            j = int(np.flatnonzero(to_join <= t_join + 1e-12 * lam)[0])
            v = np.linalg.solve(chol, gram[idx, j])
            if gram[j, j] - float(v @ v) <= schur_tol:
                blocked[j] = True
                continue
            active.append(j)
            signs.append(1.0 if to_upper[j] <= to_lower[j] else -1.0)
        blocked[:] = False
    return out


def forward_substitution_reference(L, B):
    """L^-1 B row by row in long double: x_i = (b_i - L[i, :i] x[:i]) / L[i, i]."""
    L = np.asarray(L, dtype=np.longdouble)
    X = np.array(B, dtype=np.longdouble)
    for i in range(L.shape[0]):
        X[i] = (X[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def backward_substitution_reference(L, B):
    """L^-T B row by row, last row first, in long double."""
    L = np.asarray(L, dtype=np.longdouble)
    X = np.array(B, dtype=np.longdouble)
    for i in reversed(range(L.shape[0])):
        X[i] = (X[i] - L[i + 1:, i] @ X[i + 1:]) / L[i, i]
    return X


def cholesky_reference(A):
    """The lower Cholesky factor of A, column by column, in long double."""
    A = np.asarray(A, dtype=np.longdouble)
    L = np.zeros_like(A)
    for j in range(A.shape[0]):
        L[j, j] = np.sqrt(A[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def gp_posterior_long_double(K, K_star, prior_var, y):
    """GP posterior mean and variance at each column of K_star (points,
    queries) for the covariance K of targets y with zero prior mean, by
    Rasmussen & Williams (2006) alg. 2.1 in long double: L = chol(K),
    alpha = L^-T L^-1 y, mean = K_star^T alpha, var = prior_var - |L^-1 k*|^2."""
    L = cholesky_reference(K)
    alpha = backward_substitution_reference(L, forward_substitution_reference(L, y))
    V = forward_substitution_reference(L, K_star)
    return np.asarray(K_star, dtype=np.longdouble).T @ alpha, prior_var - (V * V).sum(axis=0)


def pack_reference(L, block):
    """A lower triangle as blocks of `block` rows, block b an array (1,
    block, (b + 1) * block) zero past the last row, and each diagonal
    block's inverse, (1, block, block), lower-triangular and zero past the
    last row: block by block, the last diagonal block padded with the
    identity before all are inverted at once."""
    n = L.shape[0]
    blocks = []
    for i0 in range(0, n, block):
        packed = np.zeros((1, block, i0 + block))
        rows = L[i0:i0 + block, :i0 + block]
        packed[0, :rows.shape[0], :rows.shape[1]] = rows
        blocks.append(packed)
    D = np.array([packed[0, :, -block:] for packed in blocks]).reshape(-1, block, block)
    pad = np.arange(n % block or block, block)
    D[-1:, pad, pad] = 1.0
    inverses = np.tril(np.linalg.inv(D))
    inverses[-1:, pad] = 0.0
    return blocks, [inverse[None] for inverse in inverses]
