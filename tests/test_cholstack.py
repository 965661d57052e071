import math

import numpy as np
import pytest

from hwcost import bayesopt as bo
from hwcost.cholstack import BLOCK, CholeskyStack, substitute

from oracles import forward_substitution_reference, pack_reference


def _matern_factor(n, clustered, seed=None):
    """Cholesky factor of a Matérn K over n points in 2-D: spread uniformly
    with noise 1e-6, or in four clusters of radius about 1e-3 with noise
    1e-8, which leaves K nearly singular. The draw is seeded by n unless
    `seed` is given."""
    rng = np.random.default_rng(n if seed is None else seed)
    if clustered:
        centres = rng.uniform(0, 1, (4, 2))
        X = centres[rng.integers(0, 4, n)] + 1e-3 * rng.standard_normal((n, 2))
    else:
        X = rng.uniform(0, 1, (n, 2))
    K = bo._matern52(X, X, np.full(2, 0.2), 1.0) + (1e-8 if clustered else 1e-6) * np.eye(n)
    return np.linalg.cholesky(K), X, rng


def _error(x, reference):
    """Largest error of any column relative to that column's largest entry."""
    if reference.size == 0:
        return 0.0
    return float((np.abs(x - reference).max(axis=0) / np.abs(reference).max(axis=0)).max())


def _dense(blocks, n, t=0):
    """Factor t of packed blocks as a dense (n, n) lower triangle."""
    L = np.zeros((n, n))
    for b, block in enumerate(blocks):
        i0 = b * BLOCK
        L[i0:i0 + BLOCK, :i0 + BLOCK] = block[t, :n - i0, :n]
    return L


def _grown(X, noise):
    """The factor of _matern_factor's K, packed, grown row by row from its
    first row by CholeskyStack.extend."""
    key = (0.2, 0.2, 1.0, noise)
    L = np.sqrt(np.array([[1.0 + noise]]))
    stack = CholeskyStack()
    stack.keep(X[:1], {key: 0.0}, {key: (CholeskyStack.split(L), np.log(L[0, 0]), np.zeros(1))})
    for m in range(2, X.shape[0] + 1):
        assert stack.extend(X[:m], np.zeros(m), bo._bordering)[key] > -math.inf
    return stack.blocks, stack.inverses


def _assert_as_accurate_as_lu(blocks, inverses, B):
    """Against a long-double row-by-row substitution, the blocked solve on
    the packed factor errs by at most 10x what np.linalg.solve does on the
    same system; a floor of one unit roundoff keeps a bit that LU happens
    to get exactly from failing it."""
    L = _dense(blocks, B.shape[0])
    reference = forward_substitution_reference(L, B)
    x = substitute(blocks, inverses, B[None])[0]
    assert x.shape == B.shape
    lu = _error(np.linalg.solve(L, B), reference) if B.shape[0] else 0.0
    assert _error(x, reference) <= 10.0 * max(lu, np.finfo(float).eps)


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("columns", [1, 512])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 130])
def test_solve_lower_is_as_accurate_as_lu(n, columns, clustered):
    """A fresh Cholesky factor, packed as a GP state with fixed
    hyper-parameters packs it."""
    L, X, rng = _matern_factor(n, clustered)
    B = bo._matern52(X, rng.uniform(0, 1, (columns, 2)), np.full(2, 0.2), 1.0)
    _assert_as_accurate_as_lu(*CholeskyStack.pack(L), B)


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 64])
def test_substitute_meets_the_backward_stable_bound_on_every_clustered_draw(n):
    """Forty clustered draws each, one right-hand side: the blocked solve
    errs by at most n * u * cond_2(L) against the long-double substitution,
    the bound of a backward-stable triangular solve. A few of these draws
    exceed 10x LU's error, which the tests above hold their own draws to."""
    u = np.finfo(float).eps / 2
    for seed in range(1000, 1040):
        L, X, rng = _matern_factor(n, True, seed)
        b = bo._matern52(X, rng.uniform(0, 1, (1, 2)), np.full(2, 0.2), 1.0)
        x = substitute(*CholeskyStack.pack(L), b[None])[0]
        error = _error(x, forward_substitution_reference(L, b))
        assert error <= n * u * np.linalg.cond(L), f"seed {seed}"


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 130])
def test_pack_is_bit_for_bit_the_block_by_block_packing(n, clustered):
    """pack's blocks and inverses, from one padded copy of L, are those of a
    per-block loop, bit for bit, and each block owns its data."""
    L = _matern_factor(n, clustered)[0]
    got, want = CholeskyStack.pack(L), pack_reference(L, BLOCK)
    for got_parts, want_parts in zip(got, want):
        assert len(got_parts) == len(want_parts)
        for a, b in zip(got_parts, want_parts):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert all(block.flags.owndata for block in got[0])


def _assert_packed_as_reference(stack, t, L):
    """Factor t of the stack is pack_reference's packing of L, bit for bit."""
    blocks, inverses = pack_reference(L, BLOCK)
    assert len(stack.blocks) == len(stack.inverses) == len(blocks)
    for got, want in zip((stack.blocks, stack.inverses), (blocks, inverses)):
        for a, b in zip(got, want):
            assert a[t].shape == b[0].shape and a[t].tobytes() == b[0].tobytes()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 130])
def test_keep_inverts_fresh_diagonal_blocks_as_pack_does(n):
    """keep inverts the diagonal blocks of a selection's fresh factors in
    one batch, beside a stored one, and each factor's blocks and inverses
    are pack_reference's bit for bit; a selection with no fresh factor only
    reorders and drops, and one that looked up the stored keys in order
    leaves every array as it was."""
    L0, X, _ = _matern_factor(n, False)
    factors = {(0.2, 0.2, 1.0, 1e-6): L0, (0.2, 0.2, 1.0, 1e-8): _matern_factor(n, True)[0],
               (0.4, 0.4, 2.0, 1e-6): 2.0 * L0}
    k0, k1, k2 = factors

    def fresh(*keys):
        return {key: (CholeskyStack.split(factors[key]), np.log(factors[key].diagonal()).sum(),
                      np.zeros(n)) for key in keys}

    stack = CholeskyStack()
    stack.keep(X, {k0: 0.0}, fresh(k0))
    stack.keep(X, {k0: 0.0, k1: 0.0, k2: 0.0}, fresh(k1, k2))
    assert stack.keys == [k0, k1, k2]
    for t, key in enumerate(stack.keys):
        _assert_packed_as_reference(stack, t, factors[key])
    stack.keep(X, {k2: 0.0, k1: -math.inf, k0: 0.0}, {})
    assert stack.keys == [k2, k0]
    for t, key in enumerate(stack.keys):
        _assert_packed_as_reference(stack, t, factors[key])
    before = [*stack.blocks, *stack.inverses]
    stack.keep(X, {k2: 0.0, k0: 0.0}, {})
    assert all(a is b for a, b in zip([*stack.blocks, *stack.inverses], before))


@pytest.mark.parametrize("columns", [1, 512])
def test_substitution_on_a_grown_factor_is_as_accurate_as_lu(columns):
    """The clustered n = 130 factor grown row by row from its first row, as
    an auto GP state takes it from its selection's store."""
    L, X, rng = _matern_factor(130, True)
    B = bo._matern52(X, rng.uniform(0, 1, (columns, 2)), np.full(2, 0.2), 1.0)
    blocks, inverses = _grown(X, 1e-8)
    assert np.abs(_dense(blocks, 130) - L).max() <= 1e-10   # the same K's factor
    _assert_as_accurate_as_lu(blocks, inverses, B)


def _factors(Xn, keys):
    """The Cholesky factor of each key's K = s2f R + s2n I over Xn, by key
    (*lengthscales, s2f, s2n)."""
    return {key: np.linalg.cholesky(bo._matern52(Xn, Xn, np.array(key[:-2]), key[-2])
                                    + key[-1] * np.eye(Xn.shape[0]))
            for key in keys}


def _assert_inverses_match_blocks(stack):
    n = stack.xn.shape[0]
    assert len(stack.inverses) == len(stack.blocks) == -(-n // BLOCK)
    for b, (block, inverse) in enumerate(zip(stack.blocks, stack.inverses)):
        i0 = b * BLOCK
        rows = min(BLOCK, n - i0)
        assert inverse.shape == (len(stack.keys), BLOCK, BLOCK)
        for t in range(len(stack.keys)):
            expected = np.tril(np.linalg.inv(block[t, :rows, i0:i0 + rows]))
            got = inverse[t, :rows, :rows]
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert not inverse[:, rows:].any() and not inverse[:, :, rows:].any()


def test_stack_inverses_follow_extend_and_keep():
    """Rows bordered across block boundaries (m % 8 == 0) and a keep that
    mixes stored and fresh trials leave every diagonal block's inverse
    equal to a fresh inversion, zero past the last row."""
    rng = np.random.default_rng(5)
    Xn = rng.uniform(0, 1, (22, 2))
    ys = rng.standard_normal(22)
    keys = [(0.2, 0.4, 1.0, 1e-6), (0.4, 0.1, 2.0, 1e-4), (0.8, 0.8, 0.5, 1e-8)]
    stack = CholeskyStack()
    first = _factors(Xn[:6], keys)
    stack.keep(Xn[:6], {key: 0.0 for key in keys},
               {key: (CholeskyStack.split(L), np.log(L.diagonal()).sum(),
                      np.linalg.solve(L, ys[:6])) for key, L in first.items()})
    _assert_inverses_match_blocks(stack)
    for n in range(7, 21):
        scores = stack.extend(Xn[:n], ys[:n], bo._bordering)
        assert all(math.isfinite(v) for v in scores.values())
        _assert_inverses_match_blocks(stack)
    new = (0.1, 0.3, 4.0, 1e-2)
    L = _factors(Xn[:20], [new])[new]
    stack.keep(Xn[:20], {keys[0]: 0.0, keys[2]: 0.0, keys[1]: -math.inf, new: 0.0},
               {new: (CholeskyStack.split(L), np.log(L.diagonal()).sum(),
                      np.linalg.solve(L, ys[:20]))})
    assert stack.keys == [keys[0], keys[2], new]
    _assert_inverses_match_blocks(stack)
    for n in (21, 22):
        stack.extend(Xn[:n], ys[:n], bo._bordering)
        _assert_inverses_match_blocks(stack)
    # the stored factors are the factors of each key's K, each beside its L^-1 ys
    for t, L in enumerate(_factors(Xn, stack.keys).values()):
        assert np.abs(_dense(stack.blocks, 22, t) - L).max() <= 1e-12 * np.abs(L).max()
        w = forward_substitution_reference(_dense(stack.blocks, 22, t), ys)
        assert np.abs(stack.w[t] - w).max() <= 1e-12 * np.abs(w).max()
