"""Eigensolver: oracle spectra, validation identities, Parseval."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from etagap import bounds, spectral
from etagap.assembly import assemble, axis_factors
from etagap.errors import ConvergenceFailure, DimensionMismatch, NotPositiveDefinite
from etagap.fields import (
    AffineScalar,
    ConstantScalar,
    ConstantTensor,
    GaussianScalar,
    drift_preset,
    identity_tensor,
    tensor_preset,
)
from etagap.geometry import euclidean, hyperbolic_half_plane, make_box_domain
from etagap.scenario import apply_overrides, build_problem, builtin_config, lemma32_test_function
from etagap.spectral import (
    GRAM_BLOCK,
    MULTIPLET_REL_TOL,
    SpectrumResult,
    _band_cholesky,
    _dense,
    _identities,
    _normalise,
    multiplet_labels,
    parseval_defect,
    solve_lowest,
    validate_spectrum,
)

EUC1 = euclidean(1)
EUC2 = euclidean(2)


def interval_pair(cells, drift=None, tensor=None):
    dom = make_box_domain([(0, np.pi)], [cells], EUC1)
    return assemble(dom, tensor or identity_tensor(1), drift or ConstantScalar(1))


def square_pair(cells, tensor=None):
    dom = make_box_domain([(0, np.pi), (0, np.pi)], [cells, cells], EUC2)
    return assemble(dom, tensor or identity_tensor(2), ConstantScalar(2))


@pytest.fixture(scope="module")
def interval_2000():
    pair = interval_pair(2000)
    return pair, solve_lowest(pair, 10)


class TestSolveLowest:
    def test_interval_dirichlet_modes(self, interval_2000):
        _, res = interval_2000
        modes = np.arange(1, 11) ** 2
        rel = np.abs(res.eigenvalues - modes) / modes
        assert np.max(rel) < 1e-3

    def test_single_dof_exact(self):
        pair = interval_pair(2)
        res = solve_lowest(pair, 1)
        assert res.eigenvalues[0] == pytest.approx(12.0 / np.pi**2, rel=1e-15)

    def test_drifted_interval_shifted_modes(self):
        # substitution u = e^(x/2) v turns the drift into a +1/4 shift
        pair = interval_pair(2000, drift=AffineScalar([1.0]))
        res = solve_lowest(pair, 5)
        modes = np.arange(1, 6) ** 2 + 0.25
        rel = np.abs(res.eigenvalues - modes) / modes
        assert np.max(rel) < 2e-3

    def test_k_out_of_range(self):
        pair = interval_pair(8)
        with pytest.raises(DimensionMismatch):
            solve_lowest(pair, pair.ndof + 1)

    def test_iterative_matches_dense(self):
        pair = interval_pair(400)  # 399 DOFs, no 1-D factors: auto takes SuperLU
        dense = solve_lowest(pair, 6, method="dense")
        arpack = solve_lowest(pair, 6)
        assert arpack.meta["method"] == "superlu"
        rel = np.abs(dense.eigenvalues - arpack.eigenvalues) / dense.eigenvalues
        assert np.max(rel) < 1e-8

    def test_tensor_scaling_scales_spectrum(self):
        pair1 = interval_pair(60)
        pair3 = interval_pair(60, tensor=identity_tensor(1, 3.0))
        lam1 = solve_lowest(pair1, 4, method="dense").eigenvalues
        lam3 = solve_lowest(pair3, 4, method="dense").eigenvalues
        assert lam3 == pytest.approx(3.0 * lam1, rel=1e-12)

    def test_domain_monotonicity(self):
        # shrinking the domain cannot lower the ground eigenvalue
        big = square_pair(12)
        dom_small = make_box_domain(
            [(0, np.pi), (0, np.pi)],
            [12, 12],
            EUC2,
            mask_rule=lambda c: np.all(np.abs(c - np.pi / 2) < np.pi / 3, axis=1),
        )
        small = assemble(dom_small, identity_tensor(2), ConstantScalar(2))
        lam_big = solve_lowest(big, 1, method="dense").eigenvalues[0]
        lam_small = solve_lowest(small, 1, method="dense").eigenvalues[0]
        assert lam_small >= lam_big - 1e-12

    def test_multiplicity_groups_square(self):
        res = solve_lowest(square_pair(40), 6)
        groups = multiplet_labels(res.eigenvalues)
        # spectrum 2, 5, 5, 8, 10, 10
        assert list(groups) == [0, 1, 1, 2, 3, 3]

    def test_deterministic_runs(self):
        pair = interval_pair(300)
        a = solve_lowest(pair, 5, seed=42)
        b = solve_lowest(pair, 5, seed=42)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


def halfspace_profile_pair(cells):
    """diag_profile tensor and affine drift on a half-space box."""
    tensor = tensor_preset(
        "diag_profile",
        2,
        entries=[
            {"profile": "sin", "c0": "3", "c1": "0.5", "axis": 0},
            {"profile": "cos", "c0": "2", "c1": "0.7", "axis": 0},
        ],
    )
    drift = drift_preset("affine", 2, coeffs=["0.8", "0"])
    dom = make_box_domain([(0, 1), (1, 2)], [cells, cells], hyperbolic_half_plane(2))
    return assemble(dom, tensor, drift)


def ball_square_pair(cells):
    """Euclidean square masked to the inscribed ball."""
    dom = make_box_domain(
        [(0, np.pi), (0, np.pi)],
        [cells, cells],
        EUC2,
        mask_rule=lambda c: np.linalg.norm(c - np.pi / 2, axis=1) <= 1.4,
    )
    return assemble(dom, identity_tensor(2), ConstantScalar(2))


def residuals_per_vector(pair, lam, vecs):
    res = np.empty(lam.size)
    for j in range(lam.size):
        u = vecs[:, j]
        r = pair.A @ u - lam[j] * (pair.B @ u)
        res[j] = np.linalg.norm(r) / np.sqrt(abs(u @ (pair.B @ u)))
    return res


def normalise_per_vector(pair, vecs):
    out = vecs.copy()
    for j in range(vecs.shape[1]):
        u = out[:, j] / np.sqrt(out[:, j] @ (pair.B @ out[:, j]))
        out[:, j] = -u if u[np.argmax(np.abs(u))] < 0 else u
    return out


class TestShiftInvert:
    @pytest.mark.parametrize("build", [halfspace_profile_pair, ball_square_pair])
    def test_matches_dense(self, build):
        pair = build(32)
        dense = solve_lowest(pair, 8, method="dense")
        sparse = solve_lowest(pair, 8)
        rel = np.abs(sparse.eigenvalues - dense.eigenvalues) / dense.eigenvalues
        assert np.max(rel) <= 1e-10

    def test_auto_takes_dense_only_where_arpack_cannot_hold_k(self):
        # ARPACK needs k < ncv <= ndof - 1, so k = ndof - 1 goes dense and k = ndof - 2 still takes SuperLU
        pair = ball_square_pair(16)
        assert pair.ndof == 137 and axis_factors(pair) is None
        full = solve_lowest(pair, pair.ndof - 1)
        part = solve_lowest(pair, pair.ndof - 2)
        assert full.meta["method"] == "dense"
        assert part.meta["method"] == "superlu" and part.meta["ncv"] == pair.ndof - 1
        assert validate_spectrum(full, pair).ok and validate_spectrum(part, pair).ok
        rel = np.abs(part.eigenvalues - full.eigenvalues[:-1]) / full.eigenvalues[:-1]
        assert np.max(rel) <= 1e-10

    def test_batched_residuals_match_per_vector(self):
        pair = halfspace_profile_pair(24)
        res = solve_lowest(pair, 6)
        rng = np.random.default_rng(3)
        perturbed = res.eigenvectors + 1e-3 * rng.standard_normal(res.eigenvectors.shape)
        for vecs in (res.eigenvectors, perturbed):
            looped = residuals_per_vector(pair, res.eigenvalues, vecs)
            assert np.allclose(_identities(pair, res.eigenvalues, vecs)[0], looped, rtol=1e-12, atol=0)

    def test_batched_normalisation_matches_per_vector(self):
        pair = ball_square_pair(24)
        rng = np.random.default_rng(4)
        vecs = rng.standard_normal((pair.ndof, 7)) * rng.choice([-3.0, 0.2], size=7)
        expected = normalise_per_vector(pair, vecs)
        assert np.allclose(_normalise(pair, vecs.copy()), expected, rtol=1e-13, atol=1e-15)

    def test_batched_rayleigh_matches_per_vector(self):
        pair = halfspace_profile_pair(24)
        res = solve_lowest(pair, 6)
        rng = np.random.default_rng(5)
        vecs = res.eigenvectors + 1e-3 * rng.standard_normal(res.eigenvectors.shape)
        lam = res.eigenvalues
        looped = np.array([vecs[:, j] @ (pair.A @ vecs[:, j]) for j in range(lam.size)])
        tampered = SpectrumResult(lam, vecs, res.residuals, dict(res.meta))
        defect = validate_spectrum(tampered, pair).checks["rayleigh_identity"][1]
        assert defect == pytest.approx(np.max(np.abs(looped - lam) / lam), rel=1e-10)

    def test_meta_diagnostics(self):
        pair = ball_square_pair(64)
        res = solve_lowest(pair, 6)
        meta = res.meta
        assert meta["method"] == "superlu" and "inverse" not in meta
        assert meta["ordering"] == "MMD_AT_PLUS_A"
        assert res.k < meta["ncv"] < pair.ndof
        assert meta["op_applications"] >= meta["ncv"]
        assert meta["max_residual"] == float(np.max(res.residuals))
        colamd = spla.splu(pair.A.tocsc(), permc_spec="COLAMD")
        assert 0 < meta["factor_nnz"] < colamd.L.nnz + colamd.U.nnz

    def test_dense_meta_has_no_factor(self):
        res = solve_lowest(square_pair(8), 4, method="dense")
        assert res.meta["method"] == "dense"
        # B couples DOF r with r +- (7 + 1) on the 7 x 7 interior grid, and no further
        assert res.meta["band"] == 8
        assert "max_residual" in res.meta
        assert not {"ordering", "factor_nnz", "ncv", "op_applications"} & set(res.meta)

    def test_dense_full_spectrum_matches_separable(self):
        cfg = apply_overrides(builtin_config("lemma32_square"), {"resolution": 40})
        _, domain, tensor, drift = build_problem(cfg)
        pair = assemble(domain, tensor, drift)
        assert pair.ndof == 1521
        dense = solve_lowest(pair, pair.ndof, method="dense", solve_tol=cfg.solver.solve_tol)
        sep = solve_lowest(pair, pair.ndof, solve_tol=cfg.solver.solve_tol)
        assert (dense.meta["method"], dense.meta["band"], sep.meta["method"]) == ("dense", 40, "separable")
        rel = np.abs(dense.eigenvalues - sep.eigenvalues) / sep.eigenvalues
        assert np.max(rel) <= 1e-10

    def test_dense_indefinite_mass_raises(self):
        pair = square_pair(8)
        with pytest.raises(NotPositiveDefinite, match="dpbtrf"):
            solve_lowest(dataclasses.replace(pair, B=-pair.B), 4, method="dense")


SEPARABLE_CASES = {
    "unequal_box": ([(0, np.pi), (0, 2.0)], [12, 9], identity_tensor(2), ConstantScalar(2, 0.3)),
    "diag_affine_drift": (
        [(0, 1), (-0.5, 1.5)],
        [14, 11],
        tensor_preset("constant_diag", 2, entries=["2", "3"]),
        drift_preset("affine", 2, coeffs=["0.7", "-1.3"], c0="0.4"),
    ),
    "box_3d": (
        [(0, 1), (0, 1.5), (0, 2)],
        [7, 8, 9],
        tensor_preset("constant_diag", 3, entries=["2", "3", "1.5"]),
        drift_preset("affine", 3, coeffs=["0.7", "-1.3", "0.2"], c0="-0.6"),
    ),
    "own_axis_profiles": (
        [(0, 1), (0, 2)],
        [13, 10],
        tensor_preset(
            "diag_profile",
            2,
            entries=[
                {"profile": "sin", "c0": "2", "c1": "0.5", "axis": 0},
                {"profile": "cos", "c0": "3", "c1": "0.4", "axis": 1},
            ],
        ),
        drift_preset("affine", 2, coeffs=["0.3", "0.9"]),
    ),
}


def box_pair(bounds, resolution, tensor=None, drift=None, metric=None, mask_rule=None):
    dim = len(resolution)
    dom = make_box_domain(bounds, resolution, metric or euclidean(dim), mask_rule)
    return assemble(dom, tensor or identity_tensor(dim), drift or ConstantScalar(dim))


def counted_eigh(monkeypatch):
    """The argument tuples of every later scipy.linalg.eigh call in spectral, in a list."""
    calls, eigh = [], spectral.sla.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectral.sla, "eigh", counted)
    return calls


def separable_reference(factors, k):
    """spectral._product_pencil's read-off with one eigh per axis, equal pencils or not."""
    lams, vecs = zip(
        *(sla.eigh(K, M, subset_by_index=[0, min(k, M.shape[0]) - 1]) for K, M in zip(factors.stiffness, factors.mass))
    )
    sums = functools.reduce(np.add.outer, lams)
    order = np.argsort(sums, axis=None, kind="stable")[:k]
    out = np.ones((1, k))
    for vec, modes in zip(vecs, np.unravel_index(order, sums.shape)):
        out = (out[:, None, :] * vec[None, :, modes]).reshape(-1, k)
    return sums.ravel()[order], out


class TestSeparable:
    @pytest.mark.parametrize("case", SEPARABLE_CASES)
    def test_matches_dense(self, case):
        bounds, resolution, tensor, drift = SEPARABLE_CASES[case]
        pair = box_pair(bounds, resolution, tensor, drift)
        sep = solve_lowest(pair, 15)
        dense = solve_lowest(pair, 15, method="dense")
        assert sep.meta["method"] == "separable"
        assert sep.meta["axis_ndof"] == [r - 1 for r in resolution]
        assert np.max(sep.residuals) <= sep.meta["solve_tol"]
        rel = np.abs(sep.eigenvalues - dense.eigenvalues) / dense.eigenvalues
        assert np.max(rel) <= 1e-10
        assert validate_spectrum(sep, pair).ok

    @pytest.mark.parametrize(
        "case",
        ["ball_mask", "half_space", "diag_profile", "gaussian_drift", "off_diagonal_tensor", "one_d"],
    )
    def test_other_pencils_fall_back(self, case):
        square = [(0, np.pi), (0, np.pi)]
        if case == "ball_mask":
            pair = ball_square_pair(12)
        elif case == "half_space":
            pair = box_pair([(0, 1), (1, 2)], [12, 12], metric=hyperbolic_half_plane(2))
        elif case == "diag_profile":
            # T_11 varies along axis 1, so the axis-1 mass of A is not that of B
            tensor = tensor_preset(
                "diag_profile", 2, entries=[{"profile": "sin", "c0": 2, "c1": 0.5, "axis": 1}, {"c0": 3}]
            )
            pair = box_pair(square, [12, 12], tensor=tensor)
        elif case == "gaussian_drift":
            pair = box_pair(square, [12, 12], drift=GaussianScalar(2, 0.5, [1.0, 1.0], 0.7))
        elif case == "off_diagonal_tensor":
            pair = box_pair(square, [12, 12], tensor=ConstantTensor([[2.0, 0.3], [0.3, 1.0]]))
        else:
            pair = interval_pair(12)
        factors = axis_factors(pair)
        assert factors is None or not factors.separable
        assert solve_lowest(pair, 4).meta["method"] == "dense"

    def test_explicit_method_honoured(self):
        pair = square_pair(16)
        res = solve_lowest(pair, 6, method="dense")
        assert res.meta["method"] == "dense"
        sep = solve_lowest(pair, 6)
        assert np.max(np.abs(res.eigenvalues - sep.eigenvalues) / sep.eigenvalues) <= 1e-10

    def test_degenerate_order_is_fixed(self):
        # the square's doubled modes come out (1, 2) before (2, 1), every run:
        # the first is even in x1 and odd in x2
        res = solve_lowest(square_pair(20), 3)
        first = res.eigenvectors[:, 1].reshape(19, 19)
        assert np.allclose(first, first[::-1, :]) and np.allclose(first, -first[:, ::-1])
        assert np.array_equal(res.eigenvectors, solve_lowest(square_pair(20), 3).eigenvectors)

    def test_wrong_factors_fail_the_residual_gate(self, monkeypatch):
        # separable read-off and whitened Lanczos, each on a stretched box's factors
        half = hyperbolic_half_plane(2)
        cases = [
            (square_pair(16), box_pair([(0, np.pi), (0, 1.1 * np.pi)], [16, 16])),
            (box_pair([(0, 1), (1, 2)], [16, 16], metric=half), box_pair([(0, 1.1), (1, 2.2)], [16, 16], metric=half)),
        ]
        for pair, stretched in cases:
            wrong = axis_factors(stretched)
            monkeypatch.setattr(spectral, "axis_factors", lambda p, wrong=wrong: wrong)
            with pytest.raises(ConvergenceFailure):
                solve_lowest(pair, 4)

    def test_nan_residual_fails_the_gate(self):
        # the separable path never reads A, so only the residuals see the nan
        pair = square_pair(12)
        pair.A.data[0] = np.nan
        with pytest.raises(ConvergenceFailure):
            solve_lowest(pair, 4)

    def test_equal_axes_solved_once(self, monkeypatch):
        # axes 0 and 1 are equal, axis 2 is not: two eigh calls, not three
        pair = box_pair([(0, 1), (0, 1), (0, 1.5)], [7, 7, 5])
        factors, k = axis_factors(pair), 15
        expected = separable_reference(factors, k)
        calls = counted_eigh(monkeypatch)
        lam, vecs, meta = spectral._product_pencil(factors, k, 0)
        assert len(calls) == 2 and meta == {"method": "separable", "axis_ndof": [6, 6, 4]}
        assert np.array_equal(lam, expected[0]) and np.array_equal(vecs, expected[1])
        sep, dense = solve_lowest(pair, k), solve_lowest(pair, k, method="dense")
        assert sep.meta["method"] == "separable" and np.array_equal(sep.eigenvalues, lam)
        assert np.max(np.abs(sep.eigenvalues - dense.eigenvalues) / dense.eigenvalues) <= 1e-10

    def test_full_spectrum_limit_holds(self):
        pair = square_pair(48)  # 2209 DOFs
        with pytest.raises(DimensionMismatch):
            solve_lowest(pair, pair.ndof)


def profile_tensor(*specs):
    return tensor_preset("diag_profile", len(specs), entries=list(specs))


FAST_DIAGONALIZATION_CASES = {
    "halfspace_sweep_shape": lambda: halfspace_profile_pair(24),
    "cross_axis_profiles": lambda: box_pair(
        [(0, np.pi), (0, 2.0)],
        [24, 21],
        profile_tensor(
            {"profile": "sin", "c0": "2", "c1": "0.5", "axis": 1},
            {"profile": "cos", "c0": "3", "c1": "0.7", "axis": 0},
        ),
        drift_preset("affine", 2, coeffs=["0.4", "-0.8"], c0="0.2"),
    ),
    "hyperbolic_cy_shape": lambda: box_pair([(0, 1), (1, 2)], [24, 24], metric=hyperbolic_half_plane(2)),
    "halfspace_3d": lambda: box_pair(
        [(0, 1), (0, 1.5), (1, 2)],
        [7, 8, 9],
        tensor_preset("constant_diag", 3, entries=["2", "3", "1.5"]),
        metric=hyperbolic_half_plane(3),
    ),
    # symmetric under x1 <-> x2: double eigenvalues, and lambda_9 = lambda_10
    "halfspace_3d_multiplets": lambda: box_pair(
        [(0, 1), (0, 1), (1, 2)],
        [10, 10, 9],
        tensor_preset("constant_diag", 3, entries=["2", "2", "1.5"]),
        metric=hyperbolic_half_plane(3),
    ),
}


def kronecker_rebuild(factors):
    """The Kronecker sum of the stiffness factors and the product of B's masses, dense."""
    kron = functools.partial(functools.reduce, np.kron)
    n = len(factors.mass)
    A = sum(kron([factors.stiffness[b] if b == a else factors.mass[b] for b in range(n)]) for a in range(n))
    return A, kron(factors.b_mass)


class TestFastDiagonalization:
    @pytest.mark.parametrize("case", FAST_DIAGONALIZATION_CASES)
    def test_matches_dense(self, case):
        pair = FAST_DIAGONALIZATION_CASES[case]()
        res = solve_lowest(pair, 10)
        dense = solve_lowest(pair, 10, method="dense")
        meta = res.meta
        assert meta["method"] == "fast_diagonalization" and "inverse" not in meta
        assert meta["axis_ndof"] == [r - 1 for r in pair.domain.resolution]
        assert not {"ordering", "factor_nnz"} & set(meta)
        assert np.max(res.residuals) <= meta["solve_tol"]
        rel = np.abs(res.eigenvalues - dense.eigenvalues) / dense.eigenvalues
        assert np.max(rel) <= 1e-10
        assert np.array_equal(multiplet_labels(res.eigenvalues), multiplet_labels(dense.eigenvalues))

    @pytest.mark.parametrize("case", FAST_DIAGONALIZATION_CASES)
    def test_inverse_undoes_A(self, case, monkeypatch):
        """S = D^-1/2 G D^-1/2 is symmetric and is A^-1 B in the mode basis: A V D^-1/2 S y = B V D^-1/2 y."""
        pair = FAST_DIAGONALIZATION_CASES[case]()
        factors = axis_factors(pair)

        def solve(block):
            """S as a dense matrix, and the back map V D^-1/2 of ``block`` taken as the Lanczos vectors."""
            seen = []

            def lanczos(apply, ndof, k, seed):
                seen.append(np.column_stack([apply(e) for e in np.eye(ndof)]))
                return np.ones(k), block, {}

            monkeypatch.setattr(spectral, "_lanczos", lanczos)
            lam, u, _ = spectral._product_pencil(factors, block.shape[1], 0)
            assert np.array_equal(lam, np.ones(block.shape[1]))
            return seen[0], u

        y = np.random.default_rng(6).standard_normal((pair.ndof, 3))
        S, u = solve(y)
        assert np.max(np.abs(S - S.T)) <= 1e-10 * np.max(np.abs(S))
        A_side = pair.A @ solve(S @ y)[1]
        assert np.linalg.norm(A_side - pair.B @ u) <= 1e-10 * np.linalg.norm(pair.B @ u)

    def test_equal_axes_solved_once(self, monkeypatch):
        # x1 and x2 give equal 1-D pencils, x3 does not: two eigh calls, not three
        pair = FAST_DIAGONALIZATION_CASES["halfspace_3d_multiplets"]()
        dense = solve_lowest(pair, 10, method="dense")
        calls = counted_eigh(monkeypatch)
        res = solve_lowest(pair, 10)
        assert res.meta["method"] == "fast_diagonalization" and len(calls) == 2
        assert np.max(np.abs(res.eigenvalues - dense.eigenvalues) / dense.eigenvalues) <= 1e-10

    @pytest.mark.parametrize("case", [*FAST_DIAGONALIZATION_CASES, *SEPARABLE_CASES])
    def test_kronecker_sum_rebuilds_the_pencil(self, case):
        if case in SEPARABLE_CASES:
            pair = box_pair(*SEPARABLE_CASES[case])
        else:
            pair = FAST_DIAGONALIZATION_CASES[case]()
        factors = axis_factors(pair)
        assert factors.separable == (case in SEPARABLE_CASES)
        for rebuilt, assembled in zip(kronecker_rebuild(factors), (pair.A, pair.B)):
            assembled = assembled.toarray()
            assert np.max(np.abs(rebuilt - assembled)) <= 1e-14 * np.max(np.abs(assembled))

    @pytest.mark.parametrize("case", ["ball_mask", "gaussian_drift", "unequal_masses_3d"])
    def test_other_pencils_take_superlu(self, case):
        if case == "ball_mask":
            pair = ball_square_pair(24)
        elif case == "gaussian_drift":
            pair = box_pair([(0, np.pi), (0, np.pi)], [16, 16], drift=GaussianScalar(2, 0.5, [1.0, 1.0], 0.7))
        else:
            # T_11 and T_22 vary along axis 0 in different ways, so the masses on axis 0 differ
            tensor = profile_tensor(
                {"c0": "2"},
                {"profile": "sin", "c0": "3", "c1": "0.5", "axis": 0},
                {"profile": "cos", "c0": "2", "c1": "0.4", "axis": 0},
            )
            pair = box_pair([(0, 1), (0, 1.5), (0, 2)], [7, 8, 9], tensor)
        assert axis_factors(pair) is None
        res = solve_lowest(pair, 6)
        assert res.meta["method"] == "superlu"
        assert res.meta["ordering"] == "MMD_AT_PLUS_A" and "axis_ndof" not in res.meta
        assert np.max(res.residuals) <= res.meta["solve_tol"]


class TestValidateSpectrum:
    def test_single_dof_margins_zero(self):
        pair = interval_pair(2)
        res = solve_lowest(pair, 1)
        rep = validate_spectrum(res, pair)
        assert rep.ok
        assert rep.checks["rayleigh_identity"][1] < 1e-14

    def test_converged_interval_rayleigh_defect(self, interval_2000):
        pair, res = interval_2000
        rep = validate_spectrum(res, pair)
        assert rep.ok
        assert rep.checks["rayleigh_identity"][1] < 1e-8

    def test_perturbed_vector_breaks_orthonormality(self, interval_2000):
        pair, res = interval_2000
        bad = res.eigenvectors.copy()
        bad[:, 1] = bad[:, 1] + 0.05 * bad[:, 0]
        from etagap.spectral import SpectrumResult

        tampered = SpectrumResult(res.eigenvalues, bad, res.residuals, dict(res.meta))
        rep = validate_spectrum(tampered, pair)
        assert not rep.checks["b_orthonormal"][0]


class TestParseval:
    def test_first_eigenvector_no_defect(self):
        pair = interval_pair(40)
        res = solve_lowest(pair, 3, method="dense")
        defect = parseval_defect(res, pair, res.eigenvectors[:, 0])
        assert abs(defect) < 1e-12

    def test_full_basis_completeness(self):
        pair = interval_pair(30)
        res = solve_lowest(pair, pair.ndof, method="dense")
        rng = np.random.default_rng(1)
        f = rng.standard_normal(pair.ndof)
        assert abs(parseval_defect(res, pair, f)) <= 1e-10

    def test_orthogonal_function_full_defect(self):
        pair = interval_pair(30)
        res = solve_lowest(pair, pair.ndof, method="dense")
        f = 7.0 * res.eigenvectors[:, 3]  # B-orthogonal to u_1
        one = solve_lowest(pair, 1, method="dense")
        assert parseval_defect(one, pair, f) == pytest.approx(1.0, abs=1e-10)

    def test_nonnegative_for_random_vectors(self):
        pair = interval_pair(50)
        res = solve_lowest(pair, 5, method="dense")
        rng = np.random.default_rng(2)
        for _ in range(25):
            f = rng.standard_normal(pair.ndof)
            assert parseval_defect(res, pair, f) >= -1e-10

    def test_relative_to_the_norm(self):
        pair = interval_pair(30)
        res = solve_lowest(pair, 3, method="dense")
        f = np.random.default_rng(3).standard_normal(pair.ndof)
        assert parseval_defect(res, pair, 1e4 * f) == pytest.approx(parseval_defect(res, pair, f), rel=1e-12)
        assert parseval_defect(res, pair, np.zeros(pair.ndof)) == 0.0

    def test_dimension_error(self):
        pair = interval_pair(30)
        res = solve_lowest(pair, 2, method="dense")
        with pytest.raises(DimensionMismatch):
            parseval_defect(res, pair, np.zeros(pair.ndof + 2))


# The out-of-place forms of the residual, normalisation and defect formulas,
# kept as bitwise references for the in-place ones in spectral.
def residuals_reference(pair, lam, vecs):
    bv = pair.B @ vecs
    bnorm = np.sqrt(np.abs(np.einsum("ij,ij->j", vecs, bv)))
    return np.linalg.norm(pair.A @ vecs - bv * lam, axis=0) / bnorm


def normalise_reference(pair, vecs):
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, pair.B @ vecs))
    vecs[:, vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])] < 0] *= -1.0
    return vecs


def defects_reference(result, pair):
    """(Rayleigh defect, Gram defect) as validate_spectrum reports them."""
    lam, vecs = result.eigenvalues, result.eigenvectors
    rayleigh = np.einsum("ij,ij->j", vecs, pair.A @ vecs)
    gram = vecs.T @ (pair.B @ vecs)
    return (
        float(np.max(np.abs(rayleigh - lam) / np.maximum(lam, 1e-300))),
        float(np.max(np.abs(gram - np.eye(lam.size)))),
    )


# a pencil and the solver path it takes
PATH_CASES = {
    "dense": (ball_square_pair, 16, "dense"),
    "separable": (square_pair, 20, "auto"),
    "fast_diagonalization": (halfspace_profile_pair, 24, "auto"),
    "superlu": (ball_square_pair, 24, "auto"),
}


@pytest.fixture(scope="module", params=PATH_CASES)
def path_result(request):
    build, cells, method = PATH_CASES[request.param]
    pair = build(cells)
    res = solve_lowest(pair, 8, method=method)
    assert res.meta["method"] == request.param
    return pair, res


@pytest.fixture
def small_chunks(monkeypatch):
    """Row chunks of 7 rows and Gram blocks of 7 columns, so every path's pencil spans many chunks."""
    monkeypatch.setattr(spectral, "CHUNK_ENTRIES", 1)
    monkeypatch.setattr(spectral, "GRAM_BLOCK", 7)


def tie_columns(ndof):
    """Columns whose largest |u_i| is taken with both signs, or is nan."""
    cols = np.zeros((ndof, 5))
    cols[[3, 10], 0] = 1.0, -1.0
    cols[[3, 10], 1] = -1.0, 1.0
    cols[[3, 10, 20], 2] = 0.5, -2.0, 2.0
    cols[:, 3] = -1.0
    cols[[0, 5], 4] = np.nan, -1.0
    return cols


class TestInPlaceBitwise:
    def test_residuals(self, path_result):
        pair, res = path_result
        perturbed = res.eigenvectors + 1e-3 * np.random.default_rng(7).standard_normal(res.eigenvectors.shape)
        for vecs in (res.eigenvectors, perturbed, np.asfortranarray(perturbed)):
            expected = residuals_reference(pair, res.eigenvalues, vecs)
            assert np.array_equal(_identities(pair, res.eigenvalues, vecs)[0], expected)
        assert np.array_equal(res.residuals, residuals_reference(pair, res.eigenvalues, res.eigenvectors))

    def test_normalise(self, path_result):
        pair, res = path_result
        rng = np.random.default_rng(8)
        scaled = res.eigenvectors * rng.choice([-3.0, 0.2], size=res.k)
        for order in "CF":
            expected = normalise_reference(pair, np.array(scaled, order=order))
            assert np.array_equal(_normalise(pair, np.array(scaled, order=order)), expected)

    def test_normalise_ties(self):
        pair = square_pair(8)
        cols = tie_columns(pair.ndof)
        for order in "CF":
            expected = normalise_reference(pair, np.array(cols, order=order))
            got = _normalise(pair, np.array(cols, order=order))
            assert np.array_equal(got, expected, equal_nan=True)
        assert got[3, 0] > 0 and got[3, 1] > 0 and got[10, 2] > 0 and got[0, 3] > 0

    def test_chunked_identities(self, path_result, small_chunks):
        pair, res = path_result
        chunks = spectral._row_chunks(*res.eigenvectors.shape)
        assert len(chunks) > 2 and chunks[-1].stop - chunks[-1].start < 7  # a ragged last chunk
        perturbed = res.eigenvectors + 1e-3 * np.random.default_rng(7).standard_normal(res.eigenvectors.shape)
        for vecs in (res.eigenvectors, perturbed, np.asfortranarray(perturbed)):
            residuals, rayleigh, gram_defect = _identities(pair, res.eigenvalues, vecs)
            assert np.array_equal(residuals, residuals_reference(pair, res.eigenvalues, vecs))
            assert np.array_equal(rayleigh, np.einsum("ij,ij->j", vecs, pair.A @ vecs))
            # summed chunk by chunk, the Gram moves at rounding level only
            reference = float(np.max(np.abs(vecs.T @ (pair.B @ vecs) - np.eye(res.k))))
            assert gram_defect == pytest.approx(reference, rel=1e-9, abs=1e-13)

    def test_chunked_normalise(self, path_result, small_chunks):
        self.test_normalise(path_result)

    def test_chunked_normalise_ties(self, small_chunks):
        self.test_normalise_ties()

    def test_chunked_normalise_wide(self, small_chunks):
        # more than 32 columns: each chunk is reduced in place, not from a transposed copy
        pair = square_pair(8)
        res = solve_lowest(pair, pair.ndof, method="dense")
        assert res.k > 32 and len(spectral._row_chunks(*res.eigenvectors.shape)) > 2
        scaled = res.eigenvectors * np.random.default_rng(10).choice([-3.0, 0.2], size=res.k)
        assert np.array_equal(_normalise(pair, scaled.copy()), normalise_reference(pair, scaled.copy()))

    def test_chunked_solve_lowest(self, path_result, small_chunks):
        pair, res = path_result
        again = solve_lowest(pair, res.k, method=PATH_CASES[res.meta["method"]][2])
        assert np.array_equal(again.eigenvectors, res.eigenvectors)
        assert np.array_equal(again.residuals, res.residuals)

    def test_one_column_is_one_chunk(self, small_chunks):
        # numpy sums a single column pairwise, so splitting its rows would move its bits
        pair = ball_square_pair(24)
        assert pair.ndof > 7 and len(spectral._row_chunks(pair.ndof, 1)) == 1
        res = solve_lowest(pair, 1)
        vecs = -2.5 * res.eigenvectors + 1e-3 * np.random.default_rng(9).standard_normal(res.eigenvectors.shape)
        residuals, rayleigh, _ = _identities(pair, res.eigenvalues, vecs)
        assert np.array_equal(residuals, residuals_reference(pair, res.eigenvalues, vecs))
        assert np.array_equal(rayleigh, np.einsum("ij,ij->j", vecs, pair.A @ vecs))
        assert np.array_equal(_normalise(pair, vecs.copy()), normalise_reference(pair, vecs.copy()))
        # the column is reduced where it lies: at most the one B u column of the norm pass at a time
        copy = vecs.copy()
        tracemalloc.start()
        try:
            _normalise(pair, copy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= copy.nbytes + 8192, peak / copy.nbytes  # plus a few small arrays

    def test_validate_defects_and_inputs_untouched(self, path_result):
        pair, res = path_result
        vecs, residuals = res.eigenvectors.copy(), res.residuals.copy()
        checks = validate_spectrum(res, pair).checks
        ray_defect, ortho_defect = defects_reference(res, pair)
        assert checks["rayleigh_identity"][1] == ray_defect
        assert checks["b_orthonormal"][1] == ortho_defect
        assert np.array_equal(res.eigenvectors, vecs) and np.array_equal(res.residuals, residuals)


def test_dense_working_set():
    """The whitened solve needs C and syevd's 2 ndof^2 workspace.

    The identity pass needs at most three ndof^2 blocks with the eigenvectors, and
    validating a solver result not one.
    """
    cfg = builtin_config("lemma32_square")
    _, domain, tensor, drift = build_problem(cfg)
    pair = assemble(domain, tensor, drift)
    unit = 8.0 * pair.ndof**2
    tracemalloc.start()
    try:
        res = solve_lowest(pair, pair.ndof, method="dense", solve_tol=cfg.solver.solve_tol)
        solve_peak = tracemalloc.get_traced_memory()[1] / unit
        tracemalloc.reset_peak()
        _identities(pair, res.eigenvalues, res.eigenvectors)
        identities_peak = tracemalloc.get_traced_memory()[1] / unit
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert validate_spectrum(res, pair).ok
        validate_growth = (tracemalloc.get_traced_memory()[1] - held) / unit
    finally:
        tracemalloc.stop()
    assert solve_peak <= 3.5
    assert identities_peak <= 3.5
    assert validate_growth < 0.1


def test_every_path_returns_c_ordered_vectors(path_result):
    _, res = path_result
    assert res.eigenvectors.flags.c_contiguous


def test_separable_working_set():
    """The separable read-off builds U in C order, so no sparse product copies it.

    The B-normalisation and the identity pass then walk U by row chunks,
    so they hold U and a few chunks; B U or A U at full size would take
    one more block the size of U, and a copy of U for each sparse product
    (scipy ravels a Fortran-ordered operand) another.
    """
    pair, k = square_pair(128), 40
    unit = 8.0 * pair.ndof * k
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        res = solve_lowest(pair, k)
        solve_peak = (tracemalloc.get_traced_memory()[1] - held) / unit
    finally:
        tracemalloc.stop()
    assert res.meta["method"] == "separable"
    assert solve_peak <= 1.6


def lemma32_pair(resolution=20):
    cfg = apply_overrides(builtin_config("lemma32_square"), {"resolution": resolution})
    _, domain, tensor, drift = build_problem(cfg)
    return assemble(domain, tensor, drift)


def dense_lower_reference(pair):
    """spectral._dense before the upper factor: every column back-transformed by the transposed solve with L."""
    _, factors = _band_cholesky(pair.B)

    def solve(x, trans="N"):
        return lapack.dtbtrs(factors["L"], x, uplo="L", trans=trans, overwrite_b=1)[0]

    c = solve(np.asfortranarray(solve(pair.A.toarray(order="F")).T))
    lam, vecs = sla.eigh(c, overwrite_a=True, driver="evd", check_finite=False)
    return lam, solve(vecs, trans="T")


@pytest.fixture(scope="module")
def dense_full():
    pair = lemma32_pair()  # 361 DOFs, half-bandwidth 20
    return pair, _dense(pair, pair.ndof)


BAND_PENCILS = pytest.mark.parametrize(
    "build",
    [
        lambda: lemma32_pair(40),
        lambda: ball_square_pair(24),
        lambda: box_pair([(0, 1), (0, 1.5), (1, 2)], [7, 8, 9], metric=hyperbolic_half_plane(3)),  # kd = 65
    ],
    ids=["square_40", "ball_24", "halfspace_3d"],
)


def band_to_dense(stored, band, lower):
    """The triangular matrix held in LAPACK band storage, as a dense array."""
    n = stored.shape[1]
    if lower:  # M[j + o, j] sits at [o, j]
        return sum(np.diag(stored[o, : n - o], -o) for o in range(band + 1))
    return sum(np.diag(stored[band - o, o:], o) for o in range(band + 1))  # M[j, j + o] at [band - o, j + o]


class TestDenseBackTransform:
    @BAND_PENCILS
    def test_upper_factor_is_the_transposed_lower_one(self, build):
        pair = build()
        band, factors = _band_cholesky(pair.B)
        lower, upper = factors["L"], factors["U"]
        for o in range(band + 1):
            # L[j + o, j] sits at [o, j], and U[j, j + o] at [band - o, j + o]
            assert np.max(np.abs(upper[band - o, o:] - lower[o, : pair.ndof - o])) == 0.0

    @BAND_PENCILS
    def test_storages_describe_one_factor_of_B(self, build):
        pair = build()
        band, factors = _band_cholesky(pair.B)
        lower, upper = band_to_dense(factors["L"], band, True), band_to_dense(factors["U"], band, False)
        assert np.array_equal(lower.T, upper)
        dense_b = pair.B.toarray()
        assert np.max(np.abs(upper.T @ upper - dense_b)) <= 1e-14 * np.max(np.abs(dense_b))

    def test_eigenpairs_match_the_lower_only_path(self, dense_full):
        pair, (lam, vecs, _) = dense_full
        ref_lam, ref_vecs = dense_lower_reference(pair)
        assert np.array_equal(lam, ref_lam)
        assert np.max(np.abs(vecs - ref_vecs)) <= 1e-14 * np.max(np.abs(ref_vecs))

    @pytest.mark.parametrize("k", [1, 12, 200])
    def test_only_kept_columns_back_transformed(self, dense_full, k):
        pair, (lam, vecs, band) = dense_full
        part = _dense(pair, k)
        assert part[1].shape == (pair.ndof, k) and part[2] == band
        assert np.array_equal(part[0], lam[:k]) and np.array_equal(part[1], vecs[:, :k])

    def test_partial_solve_rows_match_the_full_solve(self, dense_full):
        pair, _ = dense_full
        full = solve_lowest(pair, pair.ndof, method="dense", solve_tol=1e-8)
        part = solve_lowest(pair, 12, method="dense", solve_tol=1e-8)
        assert np.array_equal(part.eigenvalues, full.eigenvalues[:12])
        assert np.array_equal(part.residuals, full.residuals[:12])


@pytest.fixture(scope="module")
def full_spectrum():
    pair = lemma32_pair()
    res = solve_lowest(pair, pair.ndof, method="dense", solve_tol=1e-8)
    assert res.k > GRAM_BLOCK
    return pair, res


class TestIdentityPass:
    def test_block_gram_matches_the_full_gram(self, full_spectrum):
        pair, res = full_spectrum
        _, ortho_defect = defects_reference(res, pair)
        for result in (res, dataclasses.replace(res)):
            checks = validate_spectrum(result, pair).checks
            assert abs(checks["b_orthonormal"][1] - ortho_defect) <= 4 * np.finfo(float).eps

    def test_cache_matches_a_fresh_pass(self, full_spectrum):
        pair, res = full_spectrum
        rebuilt = dataclasses.replace(res)
        assert res.identities is not None and rebuilt.identities is None
        assert SpectrumResult(res.eigenvalues, res.eigenvectors, res.residuals, res.meta).identities is None
        assert validate_spectrum(rebuilt, pair) == validate_spectrum(res, pair)

    def test_replaced_vectors_take_no_cached_modes(self, full_spectrum):
        pair, res = full_spectrum
        g = lemma32_test_function(2)
        bounds.lemma32_check(res, pair, g)
        scaled = dataclasses.replace(res, eigenvectors=2.0 * res.eigenvectors)
        fresh = SpectrumResult(res.eigenvalues, 2.0 * res.eigenvectors, res.residuals, res.meta)
        assert bounds.lemma32_check(scaled, pair, g) == bounds.lemma32_check(fresh, pair, g)

    def test_cache_is_for_its_own_pair(self, full_spectrum):
        pair, res = full_spectrum
        assert not validate_spectrum(res, dataclasses.replace(pair, B=2.0 * pair.B)).checks["b_orthonormal"][0]

    @pytest.mark.parametrize("tamper", ["scale_column", "mix_columns", "unit_shear_across_blocks"])
    def test_tamper_beyond_the_first_block_fails(self, full_spectrum, tamper):
        pair, res = full_spectrum
        bad = res.eigenvectors.copy()
        if tamper == "scale_column":
            bad[:, 300] *= 1.01
        elif tamper == "mix_columns":
            bad[:, 300] += 1e-3 * bad[:, 10]
        else:
            # unit B-norm kept: only the Gram entries (10, 300) and (300, 10) move
            bad[:, 300] = (bad[:, 300] + 1e-3 * bad[:, 10]) / np.sqrt(1.0 + 1e-6)
        tampered = SpectrumResult(res.eigenvalues, bad, res.residuals, dict(res.meta))
        assert not validate_spectrum(tampered, pair).checks["b_orthonormal"][0]


def multiplet_labels_reference(lam):
    """The loop form of spectral.multiplet_labels, kept as its reference."""
    labels = np.zeros(lam.size, dtype=int)
    for j in range(1, lam.size):
        scale = max(abs(lam[j]), abs(lam[j - 1]), 1e-300)
        same = abs(lam[j] - lam[j - 1]) <= MULTIPLET_REL_TOL * scale
        labels[j] = labels[j - 1] if same else labels[j - 1] + 1
    return labels


@st.composite
def near_tied_values(draw):
    """Values where each may repeat its predecessor up to a relative step near MULTIPLET_REL_TOL."""
    fresh = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300]),
    )
    steps = st.sampled_from([0.0, 1e-7, 1e-6 * (1 - 1e-9), 1e-6, 1e-6 * (1 + 1e-9), 2e-6, -1e-6, -1e-6 * (1 + 1e-9)])
    out = []
    for tie, value, step in draw(st.lists(st.tuples(st.booleans(), fresh, steps), max_size=30)):
        out.append(out[-1] * (1.0 + step) if tie and out else value)
    return np.array(out, dtype=float)


class TestMultipletLabels:
    @given(near_tied_values())
    @example(np.zeros(0))
    @example(np.array([-2.5]))
    @example(np.array([0.0, -0.0, 5e-324, 1.0, 1.0 + 1e-6, -3.0, -3.0 * (1 + 1e-6)]))
    @example(np.array([1.7e308, -1.7e308, 1e300]))  # finite values whose steps overflow
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop(self, lam):
        # a tie step can overflow to inf, and inf - inf is a nan that both forms read as a new group
        with np.errstate(invalid="ignore"):
            for values in (lam, np.sort(lam)):
                labels = multiplet_labels(values)
                assert labels.shape == values.shape
                with np.errstate(over="ignore"):  # the loop's numpy-scalar steps may overflow
                    expected = multiplet_labels_reference(values)
                assert np.array_equal(labels, expected)
