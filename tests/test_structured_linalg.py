"""Unit and property tests for the Hankel lifting kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import _ref_inverse_hankel
from starfri import structured_linalg as sl
from starfri import fri_uniform
from starfri.experiments import ExperimentConfig, make_batch
from starfri.fri_nonuniform import initial_iterate, lifting, pgd_denoise_paired
from starfri.refine import PgdConfig, pgd, pgd_step


def _rand_cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _fri_vec(roots, gains, n):
    m = np.arange(n)
    return sum(s * z ** m for s, z in zip(gains, roots))


def _true_af(roots):
    # ascending coefficients of prod_k (z - z_k); annihilates any mix of z_k^m
    return np.poly(roots)[::-1]


# Reference kernels: the window-view lift, the hstack pair and the per-half
# average (``_ref_inverse_hankel``, in conftest.py) that the cached gathers
# and averaging matrices replace. Every kernel must match them bit for bit.

def _ref_hankel_lift(v, alpha):
    return sliding_window_view(np.asarray(v), alpha + 1, axis=-1).copy()


def _ref_paired_hankel_lift(v_r, v_t, alpha):
    return np.hstack([_ref_hankel_lift(v_r, alpha), _ref_hankel_lift(v_t, alpha)])


def _ref_inverse_paired_hankel(m):
    half = m.shape[1] // 2
    return _ref_inverse_hankel(m[:, :half]), _ref_inverse_hankel(m[:, half:])


# every valid (n, alpha) with 3 <= n <= 20
_n_alpha = st.integers(3, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), _n_alpha, st.sampled_from([(), (1,), (3,), (2, 3)]))
def test_hankel_lift_matches_window_reference(seed, n_alpha, lead):
    n, alpha = n_alpha
    v = _rand_cvec(np.random.default_rng(seed), int(np.prod(lead)) * n).reshape(*lead, n)
    got = sl.hankel_lift(v, alpha)
    assert got.shape == (*lead, n - alpha, alpha + 1)
    assert np.array_equal(got, _ref_hankel_lift(v, alpha))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), _n_alpha)
def test_paired_hankel_lift_matches_hstack_reference(seed, n_alpha):
    n, alpha = n_alpha
    beta = _rand_cvec(np.random.default_rng(seed), 2 * n)
    assert np.array_equal(sl.paired_hankel_lift(beta, alpha),
                          _ref_paired_hankel_lift(beta[:n], beta[n:], alpha))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), _n_alpha)
def test_inverse_paired_hankel_matches_per_half_reference(seed, n_alpha):
    n, alpha = n_alpha
    m = _rand_cvec(np.random.default_rng(seed), (n - alpha) * 2 * (alpha + 1))
    m = m.reshape(n - alpha, 2 * (alpha + 1))
    got = sl.inverse_paired_hankel(m)
    assert got.shape == (2 * n,)
    assert np.array_equal(got, np.concatenate(_ref_inverse_paired_hankel(m)))


def test_lift_indices_and_average_are_cached_and_read_only():
    idx = sl._hankel_index(16, 5)
    pair = sl._paired_index(16, 5)
    stack = sl._stacked_index(16, 8)
    Wt = sl._avg_t(11, 6)
    lags = sl._lag_sums(16)
    assert sl._hankel_index(16, 5) is idx and sl._paired_index(16, 5) is pair
    assert sl._stacked_index(16, 8) is stack
    assert sl._avg_t(11, 6) is Wt and sl._lag_sums(16) is lags
    assert np.array_equal(idx, np.arange(11)[:, None] + np.arange(6))
    assert np.array_equal(pair, np.hstack([idx, idx + 16]))
    idx8 = sl._hankel_index(16, 8)
    assert np.array_equal(stack, np.vstack([idx8, idx8 + 16]))
    assert Wt.shape == (66, 16) and Wt.dtype == complex
    assert lags.shape == (16, 256)
    for a in (idx, pair, stack, Wt, lags):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.reshape(-1)[0] = 1


def test_lifts_reject_alpha_out_of_range():
    for alpha in (0, 6):
        with pytest.raises(ValueError, match="alpha out of range"):
            sl.hankel_lift(np.ones((2, 6)), alpha)
        for lift in (sl.stacked_hankel_lift, sl.paired_hankel_lift):
            with pytest.raises(ValueError, match=f"alpha out of range: alpha={alpha} .* n=6"):
                lift(np.ones(12), alpha)
        # the solvers' set-up check names alpha and n, even where K would fit
        with pytest.raises(ValueError, match=f"alpha={alpha} outside 1..n-1 for n=6"):
            sl.check_feasible(1, alpha, 6)


@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
@pytest.mark.parametrize("scenario", [1, 2])
def test_paired_pgd_matches_parent_lift_reference(scenario, snr_db):
    # M2's whole PGD loop with the reference kernels in its projection
    _, _, _, batch = make_batch(ExperimentConfig(scenario=scenario, snr_db=snr_db), 0)
    cfg = PgdConfig(k_r=2, k_t=2, init="Grid")
    psi, alpha = lifting(batch, cfg)
    n = psi.shape[0] // 2

    def project(db):
        H = _ref_paired_hankel_lift(db[:n], db[n:], alpha)
        return np.concatenate(_ref_inverse_paired_hankel(sl.rank_truncate(H, cfg.k)))

    b, it, history, _ = pgd_denoise_paired(batch, cfg)
    b_ref, it_ref, history_ref, _ = pgd(batch, cfg, psi, initial_iterate(batch, cfg, psi), project)
    assert it == it_ref
    assert np.array_equal(b, b_ref) and np.array_equal(history, history_ref)


def _ref_rank_truncate(m, k):
    # the truncation through @ and one conditional per product
    rows, cols = m.shape
    wide = rows <= cols
    mh = m.conj().T
    top = sl.eigh(m @ mh if wide else mh @ m)[1][:, -k:]
    return top @ (top.conj().T @ m) if wide else (m @ top) @ top.conj().T


@pytest.mark.parametrize("init", ["Grid", "Backprojection"])
@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
@pytest.mark.parametrize("scenario", [1, 2])
def test_stacked_pgd_matches_matmul_loop_reference(scenario, snr_db, init):
    # M1's whole PGD loop against a loop of @ products: a gather through a
    # flat index reshaped to the pair, the truncation and an @ average
    _, _, _, batch = make_batch(ExperimentConfig(scenario=scenario, snr_db=snr_db), 0)
    cfg = PgdConfig(k_r=2, k_t=2, init=init)
    psi, alpha = fri_uniform.lifting(batch, cfg)
    n = psi.shape[0] // 2
    flat = (np.arange(n - alpha)[:, None] + np.arange(alpha + 1)
            + n * np.arange(2)[:, None, None]).ravel()
    Wt = sl._avg_t(n - alpha, alpha + 1)
    mu = pgd_step(psi)
    A = np.eye(2 * n) - 2 * mu * (psi.conj() @ psi.T)
    c = 2 * mu * (psi.conj() @ batch.y)
    b_ref = fri_uniform.initial_iterate(batch, cfg, psi)
    history_ref = []
    for _ in range(cfg.i_max):
        H = _ref_rank_truncate((A @ b_ref + c)[flat].reshape(-1, alpha + 1), cfg.k)
        db = (H.reshape(2, -1) @ Wt).reshape(-1)
        d = db - b_ref
        history_ref.append(np.sqrt(np.vdot(d, d).real))
        b_ref = db
        if history_ref[-1] <= cfg.eps:
            break
    b, it, history, _ = fri_uniform.pgd_denoise(batch, cfg)
    assert it == len(history_ref)
    assert np.array_equal(b, b_ref) and np.array_equal(history, history_ref)


# ---------------------------------------------------------------- hankel_lift

def test_hankel_lift_index_pattern():
    H = sl.hankel_lift([1, 2, 3, 4], 1)
    assert np.array_equal(H, [[1, 2], [2, 3], [3, 4]])


def test_hankel_lift_geometric_rank_one():
    z = 0.7 - 0.4j
    H = sl.hankel_lift(z ** np.arange(4), 2)
    s = np.linalg.svd(H, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]


def test_hankel_lift_two_exponentials_rank_two():
    rng = np.random.default_rng(0)
    v = _fri_vec([np.exp(0.3j), np.exp(-1.1j)], [1.0, 2.0 - 1j], 8)
    H = sl.hankel_lift(v, 4)
    s = np.linalg.svd(H, compute_uv=False)
    assert s[1] > 1e-6 * s[0] and s[2] <= 1e-10 * s[0]


def test_hankel_lift_alpha_out_of_range():
    with pytest.raises(ValueError):
        sl.hankel_lift([1, 2, 3], 3)
    with pytest.raises(ValueError):
        sl.hankel_lift([1, 2, 3], 0)


# ------------------------------------------------------- stacked/paired lifts

def test_stacked_duplicate_slots():
    rng = np.random.default_rng(2)
    v = _rand_cvec(rng, 6)
    H = sl.stacked_hankel_lift(np.concatenate([v, v]), 2)
    assert np.allclose(H[:4], H[4:])


def test_stacked_k1_fri_rank_one():
    z = np.exp(-1j * np.pi * np.sin(np.radians(17.0)))
    beta = np.concatenate([s * z ** np.arange(8) for s in (2j, -0.5 + 0.1j)])
    H = sl.stacked_hankel_lift(beta, 4)
    s = np.linalg.svd(H, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]


def test_stacked_ragged_rejected():
    # beta must split into two equal halves: an odd length or a second axis
    # is rejected by both pair lifts
    for lift in (sl.stacked_hankel_lift, sl.paired_hankel_lift):
        for beta in (np.ones(11), np.ones((2, 6))):
            with pytest.raises(ValueError, match="not one 2n-vector"):
                lift(beta, 2)


def test_paired_structure_and_rank():
    rng = np.random.default_rng(3)
    v = _rand_cvec(rng, 6)
    P = sl.paired_hankel_lift(np.concatenate([v, np.zeros(6)]), 2)
    assert np.allclose(P[:, :3], sl.hankel_lift(v, 2))
    assert np.all(P[:, 3:] == 0)
    # two distinct geometric sequences -> rank 2
    P2 = sl.paired_hankel_lift(np.concatenate([0.9 ** np.arange(6), (0.5j) ** np.arange(6)]), 2)
    s = np.linalg.svd(P2, compute_uv=False)
    assert s[1] > 1e-6 * s[0] and s[2] <= 1e-10 * s[0]
    # duplicated halves add no rank
    P3 = sl.paired_hankel_lift(np.concatenate([v, v]), 2)
    assert np.linalg.matrix_rank(P3) == np.linalg.matrix_rank(sl.hankel_lift(v, 2))


# ------------------------------------------------------------ inverse mapping

def test_inverse_hankel_antidiagonal_means():
    half = np.array([[1.0, 3.0], [5.0, 7.0], [9.0, 11.0]])
    out = sl.inverse_paired_hankel(np.hstack([half, 2 * half]))
    assert np.allclose(out, [1, 4, 8, 11, 2, 8, 16, 22])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 20), st.integers(1, 10))
def test_hankel_round_trip(seed, n, a):
    alpha = min(a, n - 1)
    beta = _rand_cvec(np.random.default_rng(seed), 2 * n)
    assert np.allclose(sl.inverse_paired_hankel(sl.paired_hankel_lift(beta, alpha)), beta)


def test_inverse_hankel_contraction():
    # averaging is non-expansive from Frobenius to l2: 1000 random pairs
    rng = np.random.default_rng(4)
    for _ in range(1000):
        rows, cols = rng.integers(2, 8, 2)
        m1 = _rand_cvec(rng, rows * 2 * cols).reshape(rows, 2 * cols)
        m2 = _rand_cvec(rng, rows * 2 * cols).reshape(rows, 2 * cols)
        lhs = np.linalg.norm(sl.inverse_paired_hankel(m1) - sl.inverse_paired_hankel(m2))
        assert lhs <= np.linalg.norm(m1 - m2) + 1e-12


def test_inverse_hankel_batched_round_trip_and_blocks():
    # M1's average: the stacked lift's two halves in one product with the
    # averaging matrix, back to beta
    rng = np.random.default_rng(5)
    beta = _rand_cvec(rng, 14)
    Wt = sl._avg_t(4, 4)
    H = sl.stacked_hankel_lift(beta, 3)
    assert np.allclose(np.dot(H.reshape(2, -1), Wt), beta.reshape(2, 7))
    # non-Hankel blocks: per-block loop reference
    m = _rand_cvec(rng, 8 * 4).reshape(8, 4)
    out = np.dot(m.reshape(2, -1), Wt)
    assert out.shape == (2, 7)
    for t in range(2):
        assert np.array_equal(out[t], _ref_inverse_hankel(m[4 * t:4 * (t + 1)]))


def test_inverse_hankel_matches_reference_on_every_shape():
    # one averaging matrix for every half shape, 1 x 1 up to 19 x 19
    rng = np.random.default_rng(15)
    for rows in range(1, 20):
        for cols in range(1, 20):
            m = _rand_cvec(rng, rows * 2 * cols).reshape(rows, 2 * cols)
            assert np.array_equal(sl.inverse_paired_hankel(m),
                                  np.concatenate(_ref_inverse_paired_hankel(m)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), _n_alpha)
def test_stacked_index_gathers_the_vertical_pair(seed, n_alpha):
    # the stacked lift, and M1's gather through its index, are the vertical
    # pair of beta's two window-view lifts
    n, alpha = n_alpha
    db = _rand_cvec(np.random.default_rng(seed), 2 * n)
    want = np.vstack([_ref_hankel_lift(db[:n], alpha), _ref_hankel_lift(db[n:], alpha)])
    assert np.array_equal(sl.stacked_hankel_lift(db, alpha), want)
    assert np.array_equal(db[sl._stacked_index(n, alpha)], want)


def test_inverse_paired():
    rng = np.random.default_rng(6)
    beta = _rand_cvec(rng, 12)
    assert np.allclose(sl.inverse_paired_hankel(sl.paired_hankel_lift(beta, 2)), beta)
    assert not np.any(sl.inverse_paired_hankel(np.zeros((4, 6))))
    m = _rand_cvec(rng, 24).reshape(4, 6)
    out = sl.inverse_paired_hankel(m)
    assert np.allclose(out[:6], _ref_inverse_hankel(m[:, :3]))
    assert np.allclose(out[6:], _ref_inverse_hankel(m[:, 3:]))
    with pytest.raises(ValueError):
        sl.inverse_paired_hankel(np.zeros((4, 5)))


# -------------------------------------------------------------- rank truncate

def test_rank_truncate_fixed_point_and_diag():
    rng = np.random.default_rng(7)
    u = _rand_cvec(rng, 5)[:, None]
    v = _rand_cvec(rng, 4)[None, :]
    m = u @ v
    assert np.linalg.norm(sl.rank_truncate(m, 2) - m) <= 1e-10 * np.linalg.norm(m)
    assert np.allclose(sl.rank_truncate(np.diag([1.0, 0.5]), 1), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        sl.rank_truncate(np.eye(3), 4)


def _svd_truncate(m, k):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vh[:k]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(1, 12), st.booleans(),
       st.integers(1, 12))
def test_rank_truncate_matches_svd_reference(seed, rows, cols, is_complex, k):
    # wide, tall and square, real and complex; singular values built with a
    # gap sigma_k >= 2 sigma_{k+1}, so the rank-k truncation is well defined
    r = min(rows, cols)
    k = min(k, r)
    rng = np.random.default_rng(seed)

    def orthonormal(size):
        a = rng.standard_normal((size, r))
        if is_complex:
            a = a + 1j * rng.standard_normal((size, r))
        return np.linalg.qr(a)[0]

    u, v = orthonormal(rows), orthonormal(cols)
    sv = np.sort(rng.uniform(0.1, 1.0, r))[::-1]
    if k < r:
        sv[k:] *= 0.5 * sv[k - 1] / sv[k]
    m = (u * sv) @ v.conj().T
    got = sl.rank_truncate(m, k)
    assert got.dtype == m.dtype
    want = _svd_truncate(m, k)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_rank_truncate_rejects_non_finite():
    # every shape up to 12 x 12, wide and tall, real and complex: one NaN or
    # inf entry, or one large enough to overflow the Gram matrix, raises
    # (LAPACK alone returns info = 0 for some of them, 2 x 2 Grams among them)
    rng = np.random.default_rng(15)
    for rows in range(1, 13):
        for cols in range(1, 13):
            for bad in (np.nan, np.inf, -np.inf, 1e200):
                m = _rand_cvec(rng, rows * cols).reshape(rows, cols)
                m[rng.integers(rows), rng.integers(cols)] = bad
                for a in (m, m.real):
                    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
                        sl.rank_truncate(a, 1)


def test_rank_truncate_calls_the_lapack_eigensolver_for_its_dtype(monkeypatch):
    # complex input runs zheevd, real input dsyevd (there is no dheevd)
    called = []
    lookup = sl._eigh_routine

    def spy(dtype):
        name, solve = lookup(dtype)
        called.append(name)
        return name, solve

    monkeypatch.setattr(sl, "_eigh_routine", spy)
    rng = np.random.default_rng(16)
    sl.rank_truncate(_rand_cvec(rng, 20).reshape(4, 5), 2)
    sl.rank_truncate(rng.standard_normal((5, 4)), 2)
    assert called == ["zheevd", "dsyevd"]


def test_filter_calls_the_truncations_eigensolver_and_the_step_does_not(monkeypatch):
    # the annihilating filter runs the truncation's LAPACK routine; PGD's
    # step stays off scipy's LAPACK, whose BLAS thread pool a 2n x 2n Gram
    # would start. Both raise LinAlgError on a NaN entry
    called = []
    lookup = sl._eigh_routine

    def spy(dtype):
        name, solve = lookup(dtype)
        called.append(name)
        return name, solve

    monkeypatch.setattr(sl, "_eigh_routine", spy)
    rng = np.random.default_rng(17)
    m = _rand_cvec(rng, 12).reshape(4, 3)
    sl.smallest_right_singular_vector(m)
    sl.smallest_right_singular_vector(m.real)
    pgd_step(m)
    assert called == ["zheevd", "dsyevd"]
    m[1, 2] = np.nan
    for step in (sl.smallest_right_singular_vector, pgd_step):
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            step(m)


def test_rank_truncate_eckart_young_sampled():
    # truncation error beats every member of a dense sampled rank-1 family
    rng = np.random.default_rng(8)
    m = _rand_cvec(rng, 9).reshape(3, 3)
    best = np.linalg.norm(m - sl.rank_truncate(m, 1))
    for _ in range(2000):
        u = _rand_cvec(rng, 3)[:, None]
        v = _rand_cvec(rng, 3)[None, :]
        z = u @ v
        # optimal scaling of the sampled direction
        c = np.vdot(z, m) / np.vdot(z, z)
        assert best <= np.linalg.norm(m - c * z) + 1e-12


def test_weyl_tail_singular_value():
    # sigma_{K+1}(H + E) <= ||E||_2 when rank(H) <= K
    rng = np.random.default_rng(9)
    for _ in range(300):
        k = rng.integers(1, 3)
        H = sum(np.outer(_rand_cvec(rng, 6), _rand_cvec(rng, 5)) for _ in range(k))
        E = 0.1 * _rand_cvec(rng, 30).reshape(6, 5)
        s = np.linalg.svd(H + E, compute_uv=False)
        assert s[k] <= np.linalg.svd(E, compute_uv=False)[0] + 1e-12


def test_stacked_truncation_stays_near_hankel_set():
    # rank-K truncation of a perturbed stacked lift stays within 2||E||_F of
    # the stacked-Hankel set (distance via the averaging projection)
    rng = np.random.default_rng(10)
    n, alpha, K = 8, 4, 2
    roots = np.exp(-1j * np.pi * np.sin(np.radians([13.0, -32.0])))
    for _ in range(1000):
        beta = np.concatenate([_fri_vec(roots, _rand_cvec(rng, K), n) for _ in range(2)])
        H = sl.stacked_hankel_lift(beta, alpha)
        E = 0.05 * _rand_cvec(rng, H.size).reshape(H.shape)
        T = sl.rank_truncate(H + E, K)
        avg = np.dot(T.reshape(2, -1), sl._avg_t(n - alpha, alpha + 1)).ravel()
        proj = sl.stacked_hankel_lift(avg, alpha)
        assert np.linalg.norm(T - proj) <= 2 * np.linalg.norm(E) + 1e-12


def test_lifting_lipschitz_bound():
    # ||H(v1)-H(v2)||_F <= sqrt(alpha+1) ||v1-v2||_2, all three variants
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(4, 12))
        alpha = int(rng.integers(1, n - 1))
        lip = np.sqrt(alpha + 1)
        v1, v2 = _rand_cvec(rng, n), _rand_cvec(rng, n)
        d = np.linalg.norm(v1 - v2)
        assert np.linalg.norm(sl.hankel_lift(v1, alpha) - sl.hankel_lift(v2, alpha)) <= lip * d + 1e-12
        b1 = np.concatenate([v1, _rand_cvec(rng, n)])
        b2 = np.concatenate([v2, _rand_cvec(rng, n)])
        ds = np.linalg.norm(b1 - b2)
        for lift in (sl.stacked_hankel_lift, sl.paired_hankel_lift):
            assert np.linalg.norm(lift(b1, alpha) - lift(b2, alpha)) <= lip * ds + 1e-12


# ------------------------------------------------------- null space / rooting

def test_smallest_right_singular_vector():
    v = sl.smallest_right_singular_vector(np.array([[1.0, 0.0]]))
    assert np.allclose(np.abs(v), [0, 1])
    # exact annihilation of a K=1 lift
    z = np.exp(-1j * np.pi * np.sin(np.radians(25.0)))
    H = sl.hankel_lift(z ** np.arange(8), 2)
    c = sl.smallest_right_singular_vector(H)
    assert np.linalg.norm(H @ c) <= 1e-10
    # an all-zero input annihilates every vector: any unit vector will do
    e = sl.smallest_right_singular_vector(np.zeros((3, 4)))
    assert np.isclose(np.linalg.norm(e), 1.0)
    with pytest.raises(ValueError):
        sl.smallest_right_singular_vector(np.ones((3, 1)))


def test_smallest_right_singular_vector_is_minimizer():
    rng = np.random.default_rng(12)
    m = _rand_cvec(rng, 12).reshape(4, 3)
    v = sl.smallest_right_singular_vector(m)
    best = np.linalg.norm(m @ v)
    samples = _rand_cvec(rng, 3 * 20000).reshape(20000, 3)
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    assert best <= np.abs(samples @ m.T).sum() or True  # shape guard
    assert best <= np.linalg.norm(m @ samples.T, axis=0).min() + 1e-9


def test_smallest_right_singular_vector_deterministic_phase():
    rng = np.random.default_rng(13)
    m = _rand_cvec(rng, 20).reshape(5, 4)
    v1 = sl.smallest_right_singular_vector(m)
    v2 = sl.smallest_right_singular_vector(m.copy())
    assert np.allclose(v1, v2)
    nz = np.flatnonzero(np.abs(v1) > 1e-12)[0]
    assert abs(v1[nz].imag) <= 1e-12 and v1[nz].real > 0


def test_polynomial_roots():
    assert np.allclose(sl.polynomial_roots([1, -1]), [1])
    assert np.allclose(np.sort_complex(sl.polynomial_roots([1, 0, -1])), [-1, 1])
    with pytest.raises(ValueError):
        sl.polynomial_roots([0, 0])
    assert sl.polynomial_roots([3.0]).size == 0
    # trailing zeros trimmed: same roots as the trimmed polynomial
    assert np.allclose(np.sort_complex(sl.polynomial_roots([1, -1, 0, 0])), [1])


def test_polynomial_roots_from_af_product():
    thetas = [10.0, -25.0, 40.0]
    z = np.exp(-1j * np.pi * np.sin(np.radians(thetas)))
    got = sl.polynomial_roots(_true_af(z))
    got = got[np.argsort(np.angle(got))]
    want = z[np.argsort(np.angle(z))]
    assert np.allclose(got, want, atol=1e-8)


def test_roots_to_angles():
    assert np.allclose(sl.roots_to_angles([-1j]), [30.0])
    assert np.allclose(sl.roots_to_angles([1.0 + 0j]), [0.0])
    # off the circle only the argument counts; the input order is kept
    z20 = 0.99 * np.exp(-1j * np.pi * np.sin(np.radians(20.0)))
    out = sl.roots_to_angles([z20, 3 + 3j])
    assert abs(out[0] - 20.0) < 0.01
    assert np.isclose(out[1], -np.degrees(np.arcsin(0.25)))
    # arg(z) = pi is the endfire angle
    assert np.allclose(sl.roots_to_angles([-1.0 + 0j, 1j]), [-90.0, -30.0])


def test_noiseless_stacked_annihilation():
    # H_stack(r) c_true ~ 0 for noiseless K-source slot vectors
    rng = np.random.default_rng(14)
    thetas = [-41.0, -3.5, 22.0, 57.0]
    z = np.exp(-1j * np.pi * np.sin(np.radians(thetas)))
    c = _true_af(z)
    beta = np.concatenate([_fri_vec(z, _rand_cvec(rng, 4), 16) for _ in range(2)])
    H = sl.stacked_hankel_lift(beta, 4)
    assert np.linalg.norm(H @ c) <= 1e-9 * max(np.linalg.norm(c), 1.0) * np.linalg.norm(H)
