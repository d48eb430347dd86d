"""Dense linear algebra and norm machinery."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ExpSumObjective, random_spd
from perturbopt.btl import PenaltySpec, btl_objective, sample_er_graph, sample_outcomes
from perturbopt.errors import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    RhoNotLessThanOne,
    SingularMatrix,
)
from perturbopt.numkit import (
    BlockGeometry,
    BlockSplit,
    Cholesky,
    check_symmetric,
    contraction_matrix,
    finite_diff_check,
    neumann_sup_bounds,
    psd_power,
    spd_solve,
    spectral_norm,
    sym_eig,
)
from perturbopt import numkit
from perturbopt import tolerances as tol
from perturbopt.objective import QuadraticObjective


class TestSpdSolve:
    def test_identity(self):
        assert np.allclose(spd_solve(np.eye(2), [3.0, 4.0]), [3.0, 4.0])

    def test_row_sums(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(spd_solve(a, [3.0, 3.0]), [1.0, 1.0], atol=1e-14)

    def test_against_dense_inverse_oracle(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 5)
        b = rng.standard_normal(5)
        x = spd_solve(a, b)
        oracle = np.linalg.inv(a) @ b
        np.testing.assert_allclose(x, oracle, atol=1e-10)
        resid = np.abs(a @ x - b).max()
        bound = 1e-10 * (np.abs(a).max() * np.abs(x).max() + np.abs(b).max())
        assert resid <= bound

    def test_round_trip_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_spd(rng, 6)
            b = rng.standard_normal(6)
            x = spd_solve(a, b)
            assert np.abs(a @ x - b).max() <= 1e-10 * max(1.0, np.abs(b).max())

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd_solve(np.eye(2), [1.0, 2.0, 3.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 3), st.integers(0, 2**32 - 1), st.booleans())
    def test_same_bits_as_cho_factor_and_cho_solve(self, n, rhs_cols, seed, overwrite_a):
        rng = np.random.default_rng(seed)
        a = random_spd(rng, n)
        b = rng.standard_normal(n) if rhs_cols == 0 else rng.standard_normal((n, rhs_cols))
        oracle = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(a, lower=True, check_finite=False), b, check_finite=False
        )
        b0 = b.copy()
        x = spd_solve(a.copy(), b, overwrite_a=overwrite_a)
        assert x.shape == oracle.shape
        assert x.tobytes() == oracle.tobytes()
        assert b.tobytes() == b0.tobytes()

    def test_overwrite_factors_in_place(self):
        # a BTL Hessian at n=300 (720 KB): the solve allocates the solution, not a matrix copy
        n = 300
        rng = np.random.default_rng(6)
        graph = sample_er_graph(n, 0.1, 2, rng)
        obs = sample_outcomes(graph, rng.uniform(-1, 1, n), rng)
        f = btl_objective(obs, PenaltySpec.mean_shift(1.0))
        a = f.hessian(np.zeros(n))
        b = rng.standard_normal(n)
        expected = spd_solve(a, b)
        tracemalloc.start()
        try:
            x = spd_solve(a, b, overwrite_a=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes
        assert x.tobytes() == expected.tobytes()
        assert not np.array_equal(a, f.hessian(np.zeros(n)))  # its upper triangle holds the factor

    def test_overwrite_of_a_fortran_ordered_matrix(self):
        # a matrix that is not C-ordered is factored in a copy, with the same bits
        rng = np.random.default_rng(8)
        a = random_spd(rng, 7)
        b = rng.standard_normal(7)
        fortran = np.asfortranarray(a)
        assert spd_solve(fortran, b, overwrite_a=True).tobytes() == spd_solve(a, b).tobytes()
        assert np.array_equal(fortran, a)

    def test_indefinite_raises(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 6)
        a[4, 4] = -1.0
        with pytest.raises(NotPositiveDefinite):
            spd_solve(a, np.ones(6))

    def test_reads_the_upper_triangle(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 6)
        b = rng.standard_normal(6)
        garbled = a + np.tril(rng.standard_normal((6, 6)), -1)
        assert spd_solve(garbled, b).tobytes() == spd_solve(a, b).tobytes()
        with pytest.raises(DimensionMismatch):
            spd_solve(np.ones((2, 3)), np.ones(2))

    def test_input_untouched(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 5)
        b = rng.standard_normal(5)
        a0, b0 = a.copy(), b.copy()
        spd_solve(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

    def test_short_rhs_refused_before_the_factorization(self):
        a = random_spd(np.random.default_rng(2), 4)
        a0 = a.copy()
        with pytest.raises(DimensionMismatch):
            spd_solve(a, np.ones(3), overwrite_a=True)
        assert a.tobytes() == a0.tobytes()


class TestCholesky:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 3), st.integers(0, 2**32 - 1), st.booleans())
    def test_solves_have_the_bits_of_posv(self, n, rhs_cols, seed, overwrite_a):
        """Each solve of one factor has the bits of LAPACK posv, and of spd_solve in a copy
        or in place."""
        rng = np.random.default_rng(seed)
        a = random_spd(rng, n)
        shape = (n,) if rhs_cols == 0 else (n, rhs_cols)
        rhs = [rng.standard_normal(shape) for _ in range(3)]
        factored = a.copy()
        factor = Cholesky(factored)
        assert factored.tobytes() == a.tobytes()
        for b in rhs:
            b0 = b.copy()
            x = factor.solve(b)
            _, posv, info = lapack.dposv(a.T.copy(), b, lower=1)
            assert info == 0 and x.shape == posv.shape == shape
            solved = spd_solve(a.copy(), b, overwrite_a=overwrite_a)
            assert x.tobytes() == posv.tobytes() == solved.tobytes()
            assert b.tobytes() == b0.tobytes()

    def test_refusals(self):
        with pytest.raises(NotPositiveDefinite):
            Cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            Cholesky(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            Cholesky(np.eye(2)).solve(np.ones(3))


class TestCheckSymmetric:
    def test_quadratic_curvature_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal((5, 5))
        quad = QuadraticObjective(np.zeros(5), r @ r.T + 5.0 * np.eye(5))
        h = quad.hessian(np.ones(5))
        assert np.array_equal(h, h.T)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_symmetric_input_gives_symmetrized_bits(self, n, seed):
        r = np.random.default_rng(seed).standard_normal((n, n))
        a = r + r.T  # exactly symmetric: both triangles are the same sums
        out = check_symmetric(a)
        assert out.tobytes() == (0.5 * (a + a.T)).tobytes()
        # the checked matrix itself: a caller that keeps or writes it makes its own copy
        assert out is a
        ints = np.rint(a).astype(int)
        assert check_symmetric(ints).tobytes() == ints.astype(float).tobytes()

    def test_asymmetric_input_still_checked(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
        with pytest.raises(ValueError):
            check_symmetric(a)
        within = np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
        out = check_symmetric(within)
        assert out.tobytes() == (0.5 * (within + within.T)).tobytes()

    def test_signed_zero_asymmetry_symmetrized(self):
        a = np.array([[1.0, -0.0], [0.0, 1.0]])
        assert check_symmetric(a).tobytes() == (0.5 * (a + a.T)).tobytes()

    def test_symmetric_input_holds_one_matrix(self):
        # n=300 (720 KB): the bit test builds no copy of the matrix, and none is returned
        r = np.random.default_rng(9).standard_normal((300, 300))
        a = r + r.T
        tracemalloc.start()
        try:
            out = check_symmetric(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4
        assert out is a


class TestSymEig:
    def test_diagonal(self):
        w, v = sym_eig(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        # columns are signed unit vectors
        assert np.allclose(np.abs(v), np.eye(3))

    def test_rank_one_plus_kernel(self):
        w, _ = sym_eig(np.array([[0.25, -0.25], [-0.25, 0.25]]))
        np.testing.assert_allclose(w, [0.0, 0.5], atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        a = check_symmetric(rng.standard_normal((6, 6)), rtol=np.inf)
        w, v = sym_eig(a)
        assert abs(w.sum() - np.trace(a)) <= 1e-10 * max(1.0, abs(np.trace(a)))

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        a = check_symmetric(rng.standard_normal((8, 8)), rtol=np.inf)
        w, v = sym_eig(a)
        err = np.abs((v * w) @ v.T - a).max()
        assert err <= 1e-9 * max(1.0, np.abs(a).max())
        assert np.all(np.diff(w) >= 0)


class TestPsdPower:
    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))

    def test_identity_inverse(self):
        np.testing.assert_allclose(psd_power(np.eye(3), -1.0), np.eye(3))

    def test_sandwich_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_spd(rng, 5)
            inv_half = psd_power(a, -0.5)
            np.testing.assert_allclose(inv_half @ a @ inv_half, np.eye(5), atol=1e-8)

    def test_square_of_sqrt(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 6)
        half = psd_power(a, 0.5)
        np.testing.assert_allclose(half @ half, a, atol=1e-9 * np.abs(a).max())

    def test_singular_refuses_negative_power(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrix):
            psd_power(singular, -1.0)


class TestSpectralNorm:
    def test_scalar(self):
        assert spectral_norm(np.array([[0.5]])) == pytest.approx(0.5)

    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, 3.0, 2.0])) == pytest.approx(3.0)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((5, 4))
            oracle = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(spectral_norm(m) - oracle) <= 1e-8

    def test_near_tied_top_singular_values(self):
        # a 1e-6 relative gap between the top two: a stopping rule on the change of a
        # Rayleigh quotient would stop well short of the top value here
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        sigma = np.array([2.0, 2.0 * (1.0 - 1e-6), 0.5, 0.1])
        m = u[:, :4] @ np.diag(sigma) @ v.T
        assert spectral_norm(m) == pytest.approx(2.0, rel=1e-13)
        assert spectral_norm(m.T) == pytest.approx(2.0, rel=1e-13)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.inf, 0.0]]))


class TestBlockSplit:
    def test_half(self):
        s = BlockSplit.half(5)
        assert s.p == 3 and s.q == 2 and s.dim == 5

    def test_rejects_overlap(self):
        with pytest.raises(DimensionMismatch):
            BlockSplit(np.array([0, 1]), np.array([1, 2]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            BlockSplit(np.array([0, 1]), np.array([], dtype=int))

    def test_embed(self):
        s = BlockSplit(np.array([2, 0]), np.array([1]))
        x = s.embed([5.0, 6.0], [7.0])
        np.testing.assert_allclose(x, [6.0, 7.0, 5.0])
        for theta, nui in (([5.0], [7.0]), ([5.0, 6.0], 7.0), ([5.0, 6.0], [7.0, 8.0])):
            with pytest.raises(DimensionMismatch, match="blocks of shapes"):
                s.embed(theta, nui)


class TestContractionMatrix:
    def test_two_by_two(self):
        rep = contraction_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                 BlockSplit(np.array([0]), np.array([1])))
        np.testing.assert_allclose(rep.p, [[0.5]], atol=1e-12)
        assert rep.ppt_norm == pytest.approx(0.25, abs=1e-12)
        assert rep.ppt_norm < 1.0

    def test_block_diagonal(self):
        full = np.diag([1.0, 2.0, 3.0, 4.0])
        rep = contraction_matrix(full, BlockSplit.half(4))
        assert np.abs(rep.p).max() == 0.0
        assert rep.ppt_norm == 0.0

    def test_against_eigen_oracle(self):
        # ||PP'|| equals the top eigenvalue of f_tt^{-1/2} f_tn f_nn^{-1} f_nt f_tt^{-1/2}
        rng = np.random.default_rng(6)
        for _ in range(10):
            full = random_spd(rng, 4)
            rep = contraction_matrix(full, BlockSplit.half(4))
            mid = psd_power(rep.f_tt, -0.5) @ rep.f_tn @ np.linalg.inv(rep.f_nn) \
                @ rep.f_tn.T @ psd_power(rep.f_tt, -0.5)
            oracle = np.linalg.eigvalsh(check_symmetric(mid, rtol=1e-8)).max()
            assert rep.ppt_norm == pytest.approx(oracle, abs=1e-9)
            assert 0.0 <= rep.ppt_norm < 1.0  # strict for any SPD matrix

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        full = random_spd(rng, 5)
        split = BlockSplit.half(5)
        base = contraction_matrix(full, split)
        scaled = contraction_matrix(3.7 * full, split)
        np.testing.assert_allclose(scaled.p, base.p, atol=1e-10)
        assert scaled.ppt_norm == pytest.approx(base.ppt_norm, abs=1e-10)

    def test_returns_the_geometry(self):
        rng = np.random.default_rng(9)
        split = BlockSplit.half(5)
        geometry = contraction_matrix(random_spd(rng, 5), split)
        assert isinstance(geometry, BlockGeometry)
        assert geometry.split is split
        np.testing.assert_allclose(geometry.tt_half @ geometry.tt_half, geometry.f_tt, atol=1e-12)
        ppt = geometry.p @ geometry.p.T
        direction = geometry.top_direction
        assert np.linalg.norm(direction) == pytest.approx(1.0)
        np.testing.assert_allclose(ppt @ direction, geometry.ppt_norm * direction, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 2**32 - 1))
    def test_geometry_halves_are_psd_power_bits(self, dim, seed):
        rng = np.random.default_rng(seed)
        full = random_spd(rng, dim)
        p = int(rng.integers(1, dim))
        perm = rng.permutation(dim)
        geometry = contraction_matrix(full, BlockSplit(perm[:p], perm[p:]))
        for got, block, exponent in (
            (geometry.tt_half, geometry.f_tt, 0.5), (geometry.tt_inv_half, geometry.f_tt, -0.5),
            (geometry.nn_half, geometry.f_nn, 0.5), (geometry.nn_inv_half, geometry.f_nn, -0.5),
        ):
            assert got.tobytes() == psd_power(block, exponent).tobytes()
        p_matrix = psd_power(geometry.f_tt, -0.5) @ geometry.f_tn @ psd_power(geometry.f_nn, -0.5)
        assert geometry.p.tobytes() == p_matrix.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 2**32 - 1))
    def test_ppt_norm_is_squared_spectral_norm(self, dim, seed):
        rng = np.random.default_rng(seed)
        split = BlockSplit.half(dim)
        geometry = contraction_matrix(random_spd(rng, dim), split)
        expected = spectral_norm(geometry.p) ** 2
        assert abs(geometry.ppt_norm - expected) <= 1e-12 * max(expected, 1e-300)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 2**32 - 1))
    def test_smallest_singular_values_of_the_metrics(self, dim, seed):
        # in M = F^{1/2}, M^{-1} F M^{-1} = I: the l2 constants need only smin(M)
        rng = np.random.default_rng(seed)
        geometry = contraction_matrix(random_spd(rng, dim), BlockSplit.half(dim))
        for smin, half, inv_half, block in (
            (geometry.tt_smin, geometry.tt_half, geometry.tt_inv_half, geometry.f_tt),
            (geometry.nn_smin, geometry.nn_half, geometry.nn_inv_half, geometry.f_nn),
        ):
            singular = np.linalg.svd(half, compute_uv=False)
            assert smin == pytest.approx(singular.min(), rel=1e-12)
            np.testing.assert_allclose(inv_half @ block @ inv_half, np.eye(len(block)),
                                       atol=1e-12)

    def test_norm_is_squared_spectral(self):
        rng = np.random.default_rng(8)
        full = random_spd(rng, 6)
        rep = contraction_matrix(full, BlockSplit.half(6))
        assert rep.ppt_norm == pytest.approx(spectral_norm(rep.p) ** 2, abs=1e-10)

    def test_symmetric_hessian_read_in_place(self, monkeypatch):
        # the symmetry check hands back the matrix itself, and nothing writes it
        full = random_spd(np.random.default_rng(12), 6)
        before = full.tobytes()
        checked = []
        check = numkit.check_symmetric
        monkeypatch.setattr(numkit, "check_symmetric",
                            lambda a: checked.append(check(a)) or checked[-1])
        contraction_matrix(full, BlockSplit.half(6))
        assert len(checked) == 1 and checked[0] is full
        assert full.tobytes() == before

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.booleans())
    def test_geometry_bits_match_the_construction_written_out(self, dim, seed, asymmetric):
        rng = np.random.default_rng(seed)
        full = random_spd(rng, dim)
        if asymmetric:  # within SYMMETRY_RTOL, so the symmetrizing path is taken
            full = full + 0.1 * tol.SYMMETRY_RTOL * np.triu(rng.uniform(0.5, 1.0, (dim, dim)), 1)
            assert full.tobytes() != full.T.tobytes()
        p = int(rng.integers(1, dim))
        perm = rng.permutation(dim)
        split = BlockSplit(perm[:p], perm[p:])
        geometry = contraction_matrix(full, split)

        f = check_symmetric(full)
        t, s = split.target_idx, split.nuisance_idx
        f_tt, f_tn, f_nn = f[np.ix_(t, t)], f[np.ix_(t, s)], f[np.ix_(s, s)]
        roots = []
        for block in (f_tt, f_nn):
            w, v = np.linalg.eigh(block)
            roots.append(((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T, (v * w**-0.5) @ v.T,
                          float(np.sqrt(w[0]))))
        (tt_half, tt_inv_half, tt_smin), (nn_half, nn_inv_half, nn_smin) = roots
        p_matrix = tt_inv_half @ f_tn @ nn_inv_half
        w, v = np.linalg.eigh(p_matrix @ p_matrix.T)
        ppt_norm = max(float(w[-1]), 0.0)
        for got, want in (
            (geometry.f_tt, f_tt), (geometry.f_tn, f_tn), (geometry.f_nn, f_nn),
            (geometry.tt_half, tt_half), (geometry.tt_inv_half, tt_inv_half),
            (geometry.nn_half, nn_half), (geometry.nn_inv_half, nn_inv_half),
            (geometry.p, p_matrix), (geometry.top_direction, v[:, -1]),
        ):
            assert got.tobytes() == want.tobytes()
        assert (geometry.ppt_norm.hex(), geometry.tt_smin.hex(), geometry.nn_smin.hex()) == (
            ppt_norm.hex(), tt_smin.hex(), nn_smin.hex())
        assert geometry.split is split
        assert geometry.rho_star.hex() == (geometry.ppt_norm ** 0.5).hex()

    def test_split_must_cover_the_hessian(self):
        rng = np.random.default_rng(10)
        with pytest.raises(DimensionMismatch, match="split covers 4 coordinates, Hessian has 6"):
            contraction_matrix(random_spd(rng, 6), BlockSplit.half(4))

    def test_singular_diagonal_block_raises(self):
        full = np.diag([1.0, 0.0, 2.0, 3.0])
        with pytest.raises(SingularMatrix):
            contraction_matrix(full, BlockSplit.half(4))

    def test_asymmetric_hessian_refused(self):
        full = np.eye(4)
        full[0, 3] = 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            contraction_matrix(full, BlockSplit.half(4))

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_failed_decomposition_raises_no_convergence(self, failing, monkeypatch):
        # the two diagonal blocks are decomposed first, then PP'; each failure is NoConvergence
        eigh, calls = np.linalg.eigh, []

        def flaky(a):
            calls.append(a.shape)
            if len(calls) == failing:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", flaky)
        with pytest.raises(NoConvergence, match="eigendecomposition failed: Eigenvalues"):
            contraction_matrix(random_spd(np.random.default_rng(11), 5), BlockSplit.half(5))
        assert calls == [(3, 3), (2, 2), (3, 3)][:failing]


def _random_unit_diag_contraction(rng, n, rho_target):
    b = np.eye(n)
    off = rng.standard_normal((n, n))
    np.fill_diagonal(off, 0.0)
    rowsum = np.abs(off).sum(axis=1)
    if rowsum.max() > 0:
        b += off * (rho_target / rowsum.max())
    return b


class TestNeumannSupBounds:
    def test_identity(self):
        rep = neumann_sup_bounds(np.eye(3), np.array([1.0, -2.0, 0.5]))
        assert rep.rho == 0.0
        assert rep.lhs[1] == 0.0 and rep.lhs[2] == 0.0
        assert all(rep.bounds_hold)

    def test_two_by_two_direct_inverse(self):
        b = np.array([[1.0, 0.3], [0.3, 1.0]])
        u = np.array([1.0, -1.0])
        rep = neumann_sup_bounds(b, u)
        assert rep.rho == pytest.approx(0.3)
        inv = np.linalg.inv(b)
        np.testing.assert_allclose(rep.lhs[0], np.abs(inv @ u).max())
        assert all(rep.bounds_hold)

    def test_three_by_three_thousand_vectors(self):
        b = np.array([[1.0, 0.4, 0.3], [0.4, 1.0, 0.2], [0.3, 0.2, 1.0]])
        rng = np.random.default_rng(9)
        for _ in range(1000):
            rep = neumann_sup_bounds(b, rng.standard_normal(3))
            assert all(rep.bounds_hold)

    def test_rho_at_least_one_rejected(self):
        b = np.array([[1.0, 1.2], [0.3, 1.0]])
        with pytest.raises(RhoNotLessThanOne):
            neumann_sup_bounds(b, np.ones(2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.floats(0.01, 0.9), st.integers(0, 10_000))
    def test_bounds_hold_property(self, n, rho_target, seed):
        rng = np.random.default_rng(seed)
        b = _random_unit_diag_contraction(rng, n, rho_target)
        rep = neumann_sup_bounds(b, rng.standard_normal(n))
        assert all(rep.bounds_hold)


class TestFiniteDiffCheck:
    def test_quadratic_third_vanishes(self):
        rng = np.random.default_rng(10)
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        rep = finite_diff_check(quad, rng.standard_normal(4))
        assert rep.third_err <= 1e-6
        assert rep.grad_err <= 1e-8

    def test_btl_gradient_at_origin(self):
        rng = np.random.default_rng(11)
        graph = sample_er_graph(3, 1.0, 1, rng)
        obs = sample_outcomes(graph, np.zeros(3), rng)
        obj = btl_objective(obs, PenaltySpec.none())
        rep = finite_diff_check(obj, np.zeros(3))
        assert rep.grad_err <= 1e-6

    def test_exponential_closed_form(self):
        rep = finite_diff_check(ExpSumObjective(4), np.zeros(4))
        assert rep.hess_err <= 1e-5
        assert rep.grad_err <= 1e-6
