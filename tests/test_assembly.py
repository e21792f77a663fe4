"""Stiffness/mass assembly: exact values, symmetry, convergence, adjoints."""

import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import quadrature_reference as ref
from quadrature_reference import interpolate_at_quadrature

from etagap.assembly import assemble, even_chunks, project_function, quad_data
from etagap.errors import DimensionMismatch, NonFiniteValue
from etagap.fields import AffineScalar, ConstantScalar, LogAxisScalar, ScalarField, identity_tensor, tensor_preset
from etagap.geometry import euclidean, hyperbolic_half_plane, make_box_domain
from etagap.scenario import apply_overrides, build_problem, builtin_config
from etagap.spectral import solve_lowest

EUC1 = euclidean(1)
EUC2 = euclidean(2)
HYP2 = hyperbolic_half_plane(2)


def interval_pair(cells=2, drift=None):
    dom = make_box_domain([(0, np.pi)], [cells], EUC1)
    return assemble(dom, identity_tensor(1), drift or ConstantScalar(1))


class TestSingleDof:
    def test_hand_integrated_values(self):
        # two cells of width h = pi/2: A11 = 2/h, B11 = 2h/3
        pair = interval_pair()
        assert pair.A[0, 0] == pytest.approx(4.0 / np.pi, rel=1e-14)
        assert pair.B[0, 0] == pytest.approx(np.pi / 3.0, rel=1e-14)

    def test_generalized_eigenvalue(self):
        pair = interval_pair()
        res = solve_lowest(pair, 1)
        assert res.eigenvalues[0] == pytest.approx(12.0 / np.pi**2, rel=1e-15)


class TestSymmetry:
    @pytest.mark.parametrize("metric_tag", ["euclidean", "hyperbolic"])
    def test_exact_symmetry(self, metric_tag):
        if metric_tag == "euclidean":
            dom = make_box_domain([(0, np.pi), (0, np.pi)], [9, 7], EUC2)
            drift = AffineScalar([0.3, -0.1])
        else:
            dom = make_box_domain([(0, 1), (1, 2)], [9, 7], HYP2)
            drift = AffineScalar([0.3, 0.0])
        field = tensor_preset(
            "diag_profile",
            2,
            entries=[
                {"profile": "sin", "c0": 2.0, "c1": 0.5, "axis": 0},
                {"profile": "const", "c0": 3.0},
            ],
        )
        pair = assemble(dom, field, drift)
        assert (pair.A - pair.A.T).nnz == 0
        assert (pair.B - pair.B.T).nnz == 0

    def test_mass_positive_definite(self):
        dom = make_box_domain([(0, np.pi), (0, np.pi)], [8, 8], EUC2)
        pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
        np.linalg.cholesky(pair.B.toarray())
        np.linalg.cholesky(pair.A.toarray())


class TestDriftWeightedStiffness:
    def test_against_adaptive_quadrature(self):
        # 1D, eta = x, T = 1: A11 = int phi_1'(x)^2 e^(-x) dx over the two
        # cells supporting the first interior node
        cells = 200
        pair = interval_pair(cells, drift=AffineScalar([1.0]))
        h = np.pi / cells

        ref, _ = scipy.integrate.quad(lambda x: (1.0 / h**2) * np.exp(-x), 0.0, 2 * h)
        assert pair.A[0, 0] == pytest.approx(ref, abs=1e-6)

    def test_mass_against_adaptive_quadrature(self):
        cells = 200
        pair = interval_pair(cells, drift=AffineScalar([1.0]))
        h = np.pi / cells

        def hat(x):
            return np.where(x < h, x / h, (2 * h - x) / h)

        ref, _ = scipy.integrate.quad(lambda x: hat(x) ** 2 * np.exp(-x), 0.0, 2 * h, limit=200)
        # coefficient sampling by 2-point Gauss is the only quadrature error
        assert pair.B[0, 0] == pytest.approx(ref, abs=1e-6)


class TestApplyDiscrete:
    def test_single_dof_value(self):
        pair = interval_pair()
        assert pair.A @ np.ones(1) == pytest.approx([4.0 / np.pi])


class TestProjectFunction:
    def test_zero(self):
        dom = make_box_domain([(0, np.pi)], [4], EUC1)
        assert np.all(project_function(dom, ConstantScalar(1, 0.0)) == 0.0)

    def test_coordinate_nodes(self):
        dom = make_box_domain([(0, np.pi)], [4], EUC1)
        vals = project_function(dom, AffineScalar([1.0]))
        assert vals == pytest.approx([np.pi / 4, np.pi / 2, 3 * np.pi / 4])

    def test_log_nodes_hyperbolic(self):
        dom = make_box_domain([(0, 1), (1, 2)], [4, 4], HYP2)
        vals = project_function(dom, LogAxisScalar(2))
        coords = dom.interior_coords()
        assert vals == pytest.approx(np.log(coords[:, 1]))

    def test_nonfinite_rejected(self):
        class NanRight(ScalarField):
            dim = 1

            def value(self, pts):
                return np.where(pts[:, 0] > 0.3, np.nan, 1.0)

        dom = make_box_domain([(0, 1)], [4], EUC1)
        with pytest.raises(NonFiniteValue):
            project_function(dom, NanRight())


class TestDiscreteBilinearForm:
    def test_matrix_equals_quadrature_form(self):
        # v^T A u recomputed through the interpolated bilinear form
        dom = make_box_domain([(0, np.pi), (0, np.pi)], [6, 6], EUC2)
        field = tensor_preset(
            "diag_profile",
            2,
            entries=[
                {"profile": "linear", "c0": 2.0, "c1": 1.0, "axis": 0},
                {"profile": "const", "c0": 3.0},
            ],
        )
        drift = AffineScalar([0.5, 0.0])
        pair = assemble(dom, field, drift)
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal(pair.ndof), rng.standard_normal(pair.ndof)
        _, gu = interpolate_at_quadrature(pair, u)
        _, gv = interpolate_at_quadrature(pair, v)
        pts, dm, factor = ref.quad_data(pair.domain, pair.drift)
        theta = field.matrix(pts)
        form = float(np.sum(factor * np.einsum("qa,qab,qb->q", gv, theta, gu) * dm))
        assert v @ (pair.A @ u) == pytest.approx(form, rel=1e-12)

    def test_mass_equals_quadrature_form(self):
        dom = make_box_domain([(0, 1), (1, 2)], [6, 6], HYP2)
        pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
        rng = np.random.default_rng(9)
        u, v = rng.standard_normal(pair.ndof), rng.standard_normal(pair.ndof)
        uu, _ = interpolate_at_quadrature(pair, u)
        vv, _ = interpolate_at_quadrature(pair, v)
        _, dm, _ = ref.quad_data(pair.domain, pair.drift)
        assert v @ (pair.B @ u) == pytest.approx(float(np.sum(vv * uu * dm)), rel=1e-12)


class TestWeakFormConsistency:
    def test_hyperbolic_stiffness_matches_pointwise_operator(self):
        # apply A to the interpolated ln x2 and compare row-wise against
        # -int phi_i L(ln x2) dm = +int phi_i dm, which equals the row sum
        # of B on rows whose basis support is fully interior (partition of
        # unity); agreement is O(h^2) and independent of the assembly path
        dom = make_box_domain([(0, 1), (1, 2)], [64, 64], HYP2)
        pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
        af = pair.A @ project_function(dom, LogAxisScalar(2))
        b_rows = np.asarray(pair.B.sum(axis=1)).ravel()
        coords = dom.interior_coords()
        h = np.array(dom.h)
        lo = np.array([b[0] for b in dom.bounds])
        hi = np.array([b[1] for b in dom.bounds])
        deep = np.all((coords > lo + 1.5 * h) & (coords < hi - 1.5 * h), axis=1)
        ratio = af[deep] / b_rows[deep]
        assert np.max(np.abs(ratio - 1.0)) < 1e-3


class TestRefinement:
    def test_eigenvalue_second_order_rate(self):
        # lambda1(h) - lambda1(h/2) shrinks by ~4 per refinement
        lams = []
        for cells in (16, 32, 64):
            dom = make_box_domain([(0, np.pi)], [cells], EUC1)
            pair = assemble(dom, identity_tensor(1), ConstantScalar(1))
            lams.append(solve_lowest(pair, 1, method="dense").eigenvalues[0])
        r1 = (lams[0] - lams[1]) / (lams[1] - lams[2])
        assert r1 == pytest.approx(4.0, rel=0.1)

    def test_mass_total_approaches_weighted_volume(self):
        # sum_ij B_ij -> int e^(-eta) dV as the Dirichlet boundary layer shrinks
        totals = []
        for cells in (16, 32, 64):
            dom = make_box_domain([(0, 1), (1, 2)], [cells, cells], HYP2)
            pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
            totals.append(float(pair.B.sum()))
        exact = 0.5  # int over (0,1)x(1,2) of x2^-2
        errs = [abs(t - exact) for t in totals]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] / exact < 0.1


def einsum_interpolant(pair, u):
    """Reference: the Q1 interpolant contracted per shape function with einsum."""
    from etagap.assembly import _reference_elements

    domain = pair.domain
    full = np.zeros(int(np.prod(domain.node_shape)))
    full[domain.interior_flat] = u
    corner_vals = full[domain.cell_corner_nodes()]
    N, dN = _reference_elements(domain.dim, domain.h)
    return np.einsum("qa,ca->cq", N, corner_vals), np.einsum("qad,ca->cqd", dN, corner_vals)


def _interp_domain(dim):
    """A masked 2-D half-space disk or a 3-D box."""
    if dim == 2:
        return make_box_domain(
            [(0, 1), (1, 2)], [14, 11], HYP2, mask_rule=lambda c: np.linalg.norm(c - [0.5, 1.5], axis=1) < 0.45
        )
    return make_box_domain([(0, 1), (0, 2), (1, 2)], [5, 6, 4], euclidean(3))


class TestInterpolateAtQuadrature:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_einsum_reference(self, dim):
        pair = assemble(_interp_domain(dim), identity_tensor(dim), ConstantScalar(dim))
        u = np.random.default_rng(dim).standard_normal(pair.ndof)
        vals, grads = interpolate_at_quadrature(pair, u)
        ref_vals, ref_grads = einsum_interpolant(pair, u)
        ref_vals, ref_grads = ref_vals.reshape(-1), ref_grads.reshape(-1, dim)  # cell by cell, as the Gauss points
        assert vals.shape == ref_vals.shape and grads.shape == ref_grads.shape
        assert np.max(np.abs(vals - ref_vals)) <= 1e-14 * np.max(np.abs(ref_vals))
        assert np.max(np.abs(grads - ref_grads)) <= 1e-14 * np.max(np.abs(ref_grads))


class TestChunkedReader:
    """``assembly.at_quadrature`` against the one-product ``interpolate_at_quadrature``, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cells", [3, 7, 8, 64, 10**6])
    def test_chunks_equal_one_product(self, dim, cells, monkeypatch):
        from etagap import assembly

        monkeypatch.setattr(assembly, "QUAD_CELLS", cells)
        pair = assemble(_interp_domain(dim), identity_tensor(dim), ConstantScalar(dim))
        u, w = np.random.default_rng(dim).standard_normal((2, pair.ndof))
        vals, grads = interpolate_at_quadrature(pair, u)
        w_vals, _ = interpolate_at_quadrature(pair, w)
        whole = ref.quad_data(pair.domain, pair.drift)
        seen, stop = 0, 0
        for sample, dm, grad_factor, v, g in assembly.at_quadrature(pair, u, w):
            q = slice(stop, stop + dm.size)
            assert v.shape == (2, dm.size) and g.shape == (dm.size, dim)
            assert np.array_equal(v[0], vals[q]) and np.array_equal(v[1], w_vals[q]) and np.array_equal(g, grads[q])
            assert v[0].flags.c_contiguous and v[1].flags.c_contiguous and g.flags.c_contiguous
            assert np.array_equal(sample.pts, whole[0][q]) and np.array_equal(dm, whole[1][q])
            assert grad_factor == 1.0 if dim == 3 else np.array_equal(grad_factor, whole[2][q])
            seen, stop = seen + 1, q.stop
        assert stop == whole[1].size
        assert seen == -(-pair.domain.n_cells // cells)

    @pytest.mark.parametrize("size", [3, 4, 7, 512, 8192])
    def test_no_chunk_is_one_row(self, size):
        # numpy makes a one-row product a gemv, which can round otherwise than the rows of a larger product
        from etagap.assembly import even_chunks

        for count in [*range(2, 40), size - 1, size, size + 1, 2 * size + 1, 3 * size + 1]:
            chunks = even_chunks(count, size)
            assert chunks[0].start == 0 and chunks[-1].stop == count
            assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
            assert 2 <= min(c.stop - c.start for c in chunks) <= max(c.stop - c.start for c in chunks) <= size

    def test_rejects_a_vector_of_another_length(self):
        from etagap import assembly

        pair = assemble(_interp_domain(2), identity_tensor(2), ConstantScalar(2))
        with pytest.raises(DimensionMismatch):
            next(assembly.at_quadrature(pair, np.zeros(pair.ndof + 1)))


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 136, 257, 1000, 2048, 2049, 4099, 20000, 70001, 300007])
def test_pairwise_sum_has_the_bits_of_np_sum(m):
    """Fed in chunks of random length, every stream sums to the double np.sum gives over it whole, -0.0, inf and nan included."""
    from etagap.assembly import pairwise_sums

    rng = np.random.default_rng(m)
    rows = rng.standard_normal((4, m)) * np.exp(rng.uniform(-30.0, 30.0, (4, m)))
    rows[1] = -0.0
    rows[2, m // 2] = np.inf
    rows[3, [m // 4, m // 2, 3 * m // 4]] = np.inf, -np.inf, np.nan

    def chunks():
        start = 0
        while start < m:
            stop = start + int(rng.integers(1, 6000))
            yield list(rows[:, start:stop])
            start = stop

    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and overflow, as np.sum meets them too
        assert [v.hex() for v in pairwise_sums(chunks(), m)] == [float(np.sum(r)).hex() for r in rows]


def test_pairwise_sum_needs_every_value():
    from etagap.assembly import pairwise_sums

    with pytest.raises(DimensionMismatch):
        pairwise_sums([np.ones((2, 299))], 300)


def test_quad_data_holds_no_ones_where_rho_is_one():
    """rho = 1: grad_factor is the float 1.0, not an array of ones, and the weights skip the exact multiply by rho^-n = 1."""
    from etagap.geometry import volume_weight

    dom = make_box_domain([(0, 1), (0, 2)], [6, 5], EUC2, mask_rule=lambda c: c[:, 0] + c[:, 1] < 2.2)
    drift = AffineScalar([0.5, -0.25])
    pts, dm, grad_factor = quad_data(dom, drift)
    assert type(grad_factor) is float and grad_factor == 1.0
    _, w = dom.quadrature()
    old = (np.exp(-drift.value(pts)).reshape(-1, w.size) * (w * dom.cell_volume())).ravel()
    old *= volume_weight(dom.metric, pts)
    assert np.array_equal(dm, old)
    _, _, hyp_factor = quad_data(make_box_domain([(0, 1), (1, 2)], [4, 4], HYP2), drift)
    assert hyp_factor.flags.writeable and np.all(hyp_factor > 1.0)


def coo_mirror_reference(pair):
    """Reference: (A, B) scattered as COO into the upper triangle, summed and mirrored.

    This is the build the stencil CSR replaced.  It recomputes the element
    values from the pair's own quadrature data with the same products.
    """
    from etagap.assembly import _reference_elements

    domain = pair.domain
    n = domain.dim
    nq = 2**n
    ncell = domain.n_cells
    pts, dm, grad_factor = ref.quad_data(domain, pair.drift)
    dm, grad_factor = dm.reshape(ncell, nq), grad_factor.reshape(ncell, nq)
    theta = pair.field.matrix(pts).reshape(ncell, nq, n, n)
    N, dN = _reference_elements(n, domain.h)
    iu, ju = np.triu_indices(N.shape[1])
    grad_pairs = np.einsum("qia,qjb->qabij", dN, dN)[..., iu, ju].reshape(nq * n * n, -1)
    a_vals = ((dm * grad_factor)[:, :, None, None] * theta).reshape(ncell, -1) @ grad_pairs
    b_vals = dm @ (N[:, iu] * N[:, ju])

    dof = domain.dof_index()[domain.cell_corner_nodes()]
    ri, rj = dof[:, iu].T, dof[:, ju].T
    keep = (ri >= 0) & (rj >= 0)
    rows, cols = np.minimum(ri, rj)[keep], np.maximum(ri, rj)[keep]
    nd = domain.interior_flat.size

    def mirror(vals):
        upper = sp.coo_matrix((vals, (rows, cols)), shape=(nd, nd)).tocsr()
        upper.sum_duplicates()
        return (upper + upper.T - sp.diags(upper.diagonal())).tocsr()

    return mirror(a_vals.T[keep]), mirror(b_vals.T[keep])


def _ball(center, radius):
    return lambda c: np.linalg.norm(c - np.asarray(center), axis=1) < radius


STENCIL_CASES = {
    "interval_drift": lambda: (
        make_box_domain([(0, np.pi)], [40], EUC1), identity_tensor(1), AffineScalar([0.7])
    ),
    "box_euclidean": lambda: (
        make_box_domain([(0, np.pi), (0, 2)], [23, 17], EUC2),
        tensor_preset("constant", 2, matrix=[[2.0, 0.3], [0.3, 1.0]]),
        AffineScalar([0.3, -0.2]),
    ),
    "box_hyperbolic": lambda: (
        make_box_domain([(0, 1), (1, 2)], [19, 21], HYP2),
        tensor_preset(
            "diag_profile",
            2,
            entries=[{"profile": "sin", "c0": 2.0, "c1": 0.5, "axis": 1}, {"profile": "const", "c0": 3.0}],
        ),
        AffineScalar([0.3, 0.0]),
    ),
    "ball_euclidean": lambda: (
        make_box_domain([(-1, 1), (-1, 1)], [32, 32], EUC2, _ball([0, 0], 0.95)),
        identity_tensor(2),
        ConstantScalar(0),
    ),
    "ball_hyperbolic": lambda: (
        make_box_domain([(-1, 1), (1, 3)], [30, 30], HYP2, _ball([0, 2], 0.9)),
        identity_tensor(2),
        AffineScalar([0.4, 0.0]),
    ),
    # the edge couplings of this T cancel to exact zeros in A, which both builds drop
    "box_exact_zeros": lambda: (
        make_box_domain([(0, 1), (0, 1)], [4, 4], EUC2),
        tensor_preset("constant", 2, matrix=[[1.5, 1.5], [1.5, 3.0]]),
        ConstantScalar(0),
    ),
    "box_3d": lambda: (
        make_box_domain([(0, 1), (0, 1), (0, 1)], [7, 6, 5], euclidean(3)),
        tensor_preset(
            "diag_profile",
            3,
            entries=[
                {"profile": "sin", "c0": 2.0, "c1": 0.5, "axis": 2},
                {"profile": "const", "c0": 3.0},
                {"profile": "const", "c0": 1.0},
            ],
        ),
        AffineScalar([0.3, 0.1, -0.2]),
    ),
}


class TestStencilBuild:
    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    def test_matches_coo_mirror_reference(self, case):
        pair = assemble(*STENCIL_CASES[case]())
        for mat, ref in zip((pair.A, pair.B), coo_mirror_reference(pair)):
            assert mat.nnz == ref.nnz
            assert np.array_equal(mat.indptr, ref.indptr) and np.array_equal(mat.indices, ref.indices)
            if pair.domain.dim < 3:
                assert np.array_equal(mat.data, ref.data)
            else:  # the reference sums duplicates in the order of an unstable sort
                assert np.max(np.abs(mat.data - ref.data)) <= 1e-15 * np.max(np.abs(ref.data))
            assert (mat != mat.T).nnz == 0
            starts = np.zeros(mat.nnz, dtype=bool)
            starts[mat.indptr[:-1][np.diff(mat.indptr) > 0]] = True
            assert np.all((np.diff(mat.indices) > 0) | starts[1:])  # sorted, no duplicates
            assert np.all(mat.data != 0.0)
        if case == "box_exact_zeros":
            assert pair.A.nnz < pair.B.nnz


def test_assemble_working_set():
    """A's cell values are formed by cell chunks and freed before B's, and each
    pair's values reach the node arrays through one grid array: at most 14.5
    doubles per quadrature point, the weights and T included (9.3 measured;
    12.2 with every Gauss point held, 15.5 with A's values in one product,
    17.7 with every (ncell, npair) block at once).
    """
    cfg = apply_overrides(builtin_config("square_laplacian"), {"resolution": 128})
    _, domain, tensor, drift = build_problem(cfg)
    tracemalloc.start()
    try:
        pair = assemble(domain, tensor, drift)
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * domain.n_cells * 4)
    finally:
        tracemalloc.stop()
    assert peak <= 14.5


def test_pair_holds_no_per_point_array():
    """After assemble on a constant-coefficient square, the pair and its domain hold at
    most 1 double per quadrature point beyond A and B (0.31 measured: the mask and
    the int32 node index arrays).  Holding the Gauss points, the weights and an
    int64 multi-index of the cells came to about 4.
    """
    tracemalloc.start()
    try:
        cfg = apply_overrides(builtin_config("square_laplacian"), {"resolution": 128})
        _, domain, tensor, drift = build_problem(cfg)
        pair = assemble(domain, tensor, drift)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # by address: B's pattern arrays are other views of A's
    matrices = {a.ctypes.data: a.nbytes for m in (pair.A, pair.B) for a in (m.data, m.indices, m.indptr)}
    points = np.count_nonzero(domain.mask) * 2**domain.dim
    assert (held - sum(matrices.values())) / (8.0 * points) <= 1.0


class TestPerChunkQuadrature:
    """The points, weights and corners of a run of cells, formed from the grid, against the whole-array reference."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("size", [3, 7, 10**6])
    def test_chunks_equal_whole_arrays(self, dim, size):
        domain = _interp_domain(dim)
        drift = AffineScalar([0.4, -0.3, 0.2][:dim], 0.1)
        pts, w = ref.quadrature(domain)
        whole = ref.quad_data(domain, drift)
        corners = domain.cell_corner_nodes()
        nq = 2**dim
        assert 0 < domain.n_cells < np.prod(domain.resolution) or dim == 3
        chunks = even_chunks(domain.n_cells, size)
        assert chunks[-1].stop == domain.n_cells and (len(chunks) == 1) == (size > domain.n_cells)
        for cells in chunks:
            q = slice(cells.start * nq, cells.stop * nq)
            got_pts, got_w = domain.quadrature(cells)
            assert np.array_equal(got_pts, pts[q]) and np.array_equal(got_w, w)
            got = quad_data(domain, drift, cells)
            assert np.array_equal(got[0], whole[0][q]) and np.array_equal(got[1], whole[1][q])
            assert got[2] == 1.0 if dim == 3 else np.array_equal(got[2], whole[2][q])
            assert np.array_equal(domain.cell_corner_nodes(cells), corners[cells])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_strided_cells(self, dim):
        domain = _interp_domain(dim)
        pts = ref.quadrature(domain)[0].reshape(domain.n_cells, -1, dim)
        for cells in (slice(None, None, 5), slice(3, None, 7), slice(domain.n_cells - 1, None)):
            assert np.array_equal(domain.quadrature(cells)[0], pts[cells].reshape(-1, dim))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_index_arrays_take_scipys_type(self, dim):
        domain = _interp_domain(dim)
        assert domain.interior_flat.dtype == domain.dof_index().dtype == np.int32
        assert np.array_equal(domain.interior_flat, np.flatnonzero(domain.dof_index() >= 0))


class TestSharedPattern:
    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    def test_one_read_only_int32_pattern(self, case):
        pair = assemble(*STENCIL_CASES[case]())
        A, B = pair.A, pair.B
        for arr in (B.indices, B.indptr):
            assert arr.dtype == np.int32
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        if case == "box_exact_zeros":  # A drops its exact zeros from its own copy
            assert not np.shares_memory(A.indices, B.indices) and not np.shares_memory(A.indptr, B.indptr)
            assert A.nnz < B.nnz
        else:
            assert np.shares_memory(A.indices, B.indices) and np.shares_memory(A.indptr, B.indptr)


class TestModeCache:
    def _config(self, **over):
        from etagap.scenario import ScenarioConfig

        raw = {
            "name": "cache_square",
            "metric": "euclidean",
            "domain": {"bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]], "resolution": [16, 16]},
            "tensor": {"kind": "identity"},
            "solver": {"k": 8, "seed": 1},
            "verify": ["cor32"],
        }
        raw.update(over)
        return ScenarioConfig.from_dict(raw)

    def _count(self, monkeypatch):
        """The DOF vectors that each call of ``assembly.at_quadrature`` is asked to read, as bytes, in call order."""
        from etagap import assembly

        seen = []
        inner = assembly.at_quadrature

        def counting(pair, *vectors):
            seen.append([np.asarray(u).tobytes() for u in vectors])
            return inner(pair, *vectors)

        monkeypatch.setattr(assembly, "at_quadrature", counting)
        return seen

    def test_cor32_interpolates_u1_once(self, monkeypatch):
        # the chunked reader takes u_1 once, for both test functions
        from etagap.scenario import run_scenario

        seen = self._count(monkeypatch)
        rep = run_scenario(self._config(), write=False)
        assert {r.extra["test_function"] for r in rep.rows["cor32"]} == {"x1", "x2"}
        assert seen == [[rep.spectrum.eigenvectors[:, 0].tobytes()]]

    def test_lemma32_reads_every_vector_in_one_pass(self, monkeypatch):
        # one call: u_1, then each eigenvector of the multiplet of l_{k+1} of an admissible row k, once
        from etagap.scenario import run_scenario
        from etagap.spectral import multiplet_labels

        seen = self._count(monkeypatch)
        cfg = self._config(
            domain={"bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]], "resolution": [8, 8]},
            solver={"k": "full", "method": "dense"},
            verify=["lemma32"],
        )
        rep = run_scenario(cfg, write=False)
        rows, vecs = rep.rows["lemma32"], rep.spectrum.eigenvectors
        labels = multiplet_labels(rep.spectrum.eigenvalues)
        members = sorted({i for r in rows if r.claims for i in np.flatnonzero(labels == labels[r.k])})
        assert len(rows) > 2 and len(members) > 2
        assert seen == [[vecs[:, 0].tobytes()] + [vecs[:, i].tobytes() for i in members]]
