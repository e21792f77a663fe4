"""Geometry: metrics, grids, distances, and their invariants."""

import itertools

import numpy as np
import pytest

from etagap import geometry
from etagap.errors import EmptyDomain, InvalidHalfPlane, OriginInsideDomain, OutOfDomain
from etagap.geometry import (
    domain_origin_distance,
    euclidean,
    gauss_rule,
    geodesic_distance,
    gradient_norm,
    hyperbolic_half_plane,
    inverse_metric_factor,
    make_box_domain,
    radial_unit_vector,
    volume_weight,
)

EUC2 = euclidean(2)
HYP2 = hyperbolic_half_plane(2)
HYP3 = hyperbolic_half_plane(3)


def row(*x):
    """One point as a one-row (1, n) batch."""
    return np.array([x], dtype=float)


class TestMakeBoxDomain:
    def test_interior_count_square(self):
        dom = make_box_domain([(0, np.pi), (0, np.pi)], [4, 4], EUC2)
        assert dom.n_interior == 9

    def test_interior_count_interval(self):
        dom = make_box_domain([(0, np.pi)], [2], euclidean(1))
        assert dom.n_interior == 1

    def test_hyperbolic_box_below_axis_rejected(self):
        with pytest.raises(InvalidHalfPlane):
            make_box_domain([(0, 1), (-1, 2)], [4, 4], HYP2)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyDomain):
            make_box_domain(
                [(0, 1), (0, 1)], [4, 4], EUC2, mask_rule=lambda c: np.zeros(len(c), bool)
            )

    def test_mask_rule_subbox(self):
        # masking in only the lower-left 2x2 cells leaves a single interior node
        def rule(centers):
            return np.all(centers < 0.5, axis=1)

        dom = make_box_domain([(0, 1), (0, 1)], [4, 4], EUC2, mask_rule=rule)
        assert dom.n_interior == 1


class TestVolumeWeight:
    def test_euclidean_is_one(self):
        assert volume_weight(EUC2, row(0.3, 0.7))[0] == 1.0

    def test_half_plane_n2(self):
        assert volume_weight(HYP2, row(1.0, 2.0))[0] == pytest.approx(0.25, abs=0)

    def test_half_plane_n3_unit_height(self):
        assert volume_weight(HYP3, row(0.0, 5.0, 1.0))[0] == 1.0

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            volume_weight(HYP2, row(0.0, -1.0))


class TestConformalFactor:
    """Every metric quantity derives from rho, with g = rho^-2 delta."""

    def test_grad_rho(self):
        assert EUC2.grad_rho is None and euclidean(3).grad_rho is None
        assert HYP2.grad_rho.tolist() == [0.0, 1.0]
        assert HYP3.grad_rho.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("metric", [EUC2, euclidean(3), HYP2, HYP3], ids=["euc2", "euc3", "hyp2", "hyp3"])
    def test_quantities_from_rho(self, metric):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.2, 3.0, size=(25, metric.dim))
        rho = metric.rho(pts)
        assert np.array_equal(rho, np.ones(25) if metric.grad_rho is None else pts[:, -1])
        df = rng.standard_normal((25, metric.dim))
        for got, want in (
            (volume_weight(metric, pts), rho ** -float(metric.dim)),
            (inverse_metric_factor(metric, pts), rho**2),
            (gradient_norm(metric, pts, df), rho * np.linalg.norm(df, axis=1)),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_rho_must_be_positive(self):
        with pytest.raises(OutOfDomain):
            inverse_metric_factor(HYP3, row(0.5, 0.5, 0.0))
        with pytest.raises(InvalidHalfPlane):
            make_box_domain([(0, 1), (0, 1), (0, 2)], [2, 2, 2], HYP3)
        assert inverse_metric_factor(EUC2, row(0.5, -3.0))[0] == 1.0


def raise_gradient(metric, p, coordinate_gradient):
    """Test-only reference: the metric gradient vector of a covector df at p.

    Euclidean: identity.  Hyperbolic: multiply componentwise by x_n^2, so
    the metric norm of the result is x_n * |df|, which gradient_norm reports.
    """
    p = np.asarray(p, dtype=float)
    scale = p[-1] ** 2 if metric.is_hyperbolic else 1.0
    return np.asarray(coordinate_gradient, dtype=float) * scale


def metric_norm(metric, p, vec):
    """|vec|_g at p for coordinate components vec."""
    norm = float(np.linalg.norm(vec))
    return norm / p[-1] if metric.is_hyperbolic else norm


class TestRaiseGradient:
    def test_log_gradient_half_plane(self):
        # f = ln x2 at x2 = 3: covector (0, 1/3) raises to (0, 3), unit norm
        vec = raise_gradient(HYP2, [0.0, 3.0], [0.0, 1.0 / 3.0])
        assert vec == pytest.approx([0.0, 3.0])
        assert gradient_norm(HYP2, row(0.0, 3.0), row(0.0, 1.0 / 3.0))[0] == pytest.approx(1.0)

    def test_euclidean_identity(self):
        assert raise_gradient(EUC2, [0.1, 0.2], [1.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_zero_covector(self):
        assert raise_gradient(HYP2, [0.5, 1.5], [0.0, 0.0]) == pytest.approx([0.0, 0.0])

    def test_linearity_in_covector(self):
        rng = np.random.default_rng(3)
        p = np.array([0.4, 1.7])
        for _ in range(20):
            a, b = rng.standard_normal(2)
            u, v = rng.standard_normal(2), rng.standard_normal(2)
            lhs = raise_gradient(HYP2, p, a * u + b * v)
            rhs = a * raise_gradient(HYP2, p, u) + b * raise_gradient(HYP2, p, v)
            assert lhs == pytest.approx(rhs, abs=1e-14)
            # gradient_norm is the metric norm of the raised gradient
            assert gradient_norm(HYP2, p[None], u[None])[0] == pytest.approx(metric_norm(HYP2, p, raise_gradient(HYP2, p, u)), rel=1e-14)


class TestGeodesicDistance:
    def test_vertical_unit_distance(self):
        # cosh(1) = (e^2 + 1)/(2e) matches the closed-form identity
        assert geodesic_distance(HYP2, row(0.0, 1.0), np.array([0.0, np.e]))[0] == pytest.approx(1.0)

    def test_coincident_points(self):
        assert geodesic_distance(HYP2, row(0.3, 1.1), np.array([0.3, 1.1]))[0] == 0.0

    def test_euclidean_345(self):
        assert geodesic_distance(EUC2, row(0.0, 0.0), np.array([3.0, 4.0]))[0] == 5.0

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for metric in (EUC2, HYP2):
            for _ in range(200):
                pts = rng.uniform(0.2, 3.0, size=(3, 2))
                d01 = geodesic_distance(metric, pts[[0]], pts[1])[0]
                d10 = geodesic_distance(metric, pts[[1]], pts[0])[0]
                d02 = geodesic_distance(metric, pts[[0]], pts[2])[0]
                d12 = geodesic_distance(metric, pts[[1]], pts[2])[0]
                assert abs(d01 - d10) <= 1e-10
                assert d01 <= d02 + d12 + 1e-10

    def test_vertical_pairs_exact_log(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x1 = rng.uniform(-2, 2)
            a, b = rng.uniform(0.1, 5.0, size=2)
            d = geodesic_distance(HYP2, row(x1, a), np.array([x1, b]))[0]
            assert d == pytest.approx(abs(np.log(b / a)), abs=1e-12)


class TestDomainOriginDistance:
    def test_euclidean_square_corner(self):
        dom = make_box_domain([(1, 2), (1, 2)], [4, 4], EUC2)
        d = domain_origin_distance(dom, np.array([0.0, 0.0]))
        assert d == pytest.approx(np.sqrt(2.0))

    def test_origin_on_domain_corner_rejected(self):
        dom = make_box_domain([(1, 2), (1, 2)], [4, 4], EUC2)
        with pytest.raises(OriginInsideDomain):
            domain_origin_distance(dom, np.array([1.0, 1.0]))

    def test_hyperbolic_strip_vertical(self):
        dom = make_box_domain([(0, 1), (1, 2)], [6, 6], HYP2)
        d = domain_origin_distance(dom, np.array([0.0, np.e**2]))
        assert d == pytest.approx(np.log(np.e**2 / 2.0))

    @pytest.mark.parametrize(
        "dom, origin",
        [
            (make_box_domain([(1, 2), (0.5, 2)], [9, 7], EUC2), [0.0, -0.3]),
            (make_box_domain([(-1, 1), (-1, 1)], [30, 30], EUC2, lambda c: np.linalg.norm(c, axis=1) < 0.9), [1.0, 1.0]),
            (make_box_domain([(0, 1), (1, 3)], [24, 24], HYP2), [0.0, 4.0]),
            (make_box_domain([(0, 1), (0, 1.5), (1, 2)], [5, 6, 7], HYP3), [-0.5, 2.0, 2.5]),
            (
                make_box_domain(
                    [(-1, 1), (-1, 1), (-1, 1)], [10, 9, 11], euclidean(3), lambda c: np.linalg.norm(c, axis=1) < 0.8
                ),
                [0.9, 0.9, 0.9],
            ),
        ],
        ids=["box_2d", "ball_2d", "half_space_2d", "half_space_3d", "ball_3d"],
    )
    def test_nodes_and_distance_match_unique_reference(self, monkeypatch, dom, origin):
        origin = np.array(origin)
        nodes = np.unique(dom.cell_corner_nodes().ravel())
        expected = float(np.min(geodesic_distance(dom.metric, dom.node_coords(nodes), origin)))
        seen = []

        def spy(metric, pts, y):
            seen.append(pts)
            return geodesic_distance(metric, pts, y)

        monkeypatch.setattr(geometry, "geodesic_distance", spy)
        assert domain_origin_distance(dom, origin) == expected
        assert len(seen) == 1 and np.array_equal(seen[0], dom.node_coords(nodes))


def contains_point_reference(dom, p):
    """GridDomain.contains_point before it looked at p's neighbouring cells only: every masked cell."""
    lo, h = np.array([b[0] for b in dom.bounds]), np.array(dom.h)
    eps = 1e-12 * np.maximum(np.abs(lo) + np.abs(h) * np.array(dom.resolution), 1.0)
    corner_lo = lo[None, :] + np.argwhere(dom.mask) * h[None, :]
    corner_hi = corner_lo + h[None, :]
    return bool(np.any(np.all(p >= corner_lo - eps, axis=1) & np.all(p <= corner_hi + eps, axis=1)))


def _ball_mask(center, radius):
    return lambda c: np.linalg.norm(c - np.asarray(center), axis=1) < radius


CONTAINS_CASES = {
    "box_2d": lambda: make_box_domain([(1, 2), (0.5, 2)], [9, 7], EUC2),
    "ball_2d": lambda: make_box_domain([(-1, 1), (-1.3, 0.7)], [13, 11], EUC2, _ball_mask([0, -0.3], 0.85)),
    "box_3d": lambda: make_box_domain([(0, 1), (0, 1.5), (1, 2)], [4, 5, 6], HYP3),
    "ball_3d": lambda: make_box_domain(
        [(-1, 1), (-1, 1), (-1, 1)], [6, 5, 7], euclidean(3), _ball_mask([0.1, 0, -0.1], 0.8)
    ),
}


class TestContainsPoint:
    @pytest.mark.parametrize("case", sorted(CONTAINS_CASES))
    def test_matches_every_cell_reference(self, case):
        dom = CONTAINS_CASES[case]()
        lo, h = np.array([b[0] for b in dom.bounds]), np.array(dom.h)
        eps = 1e-12 * np.maximum(np.abs(lo) + np.abs(h) * np.array(dom.resolution), 1.0)
        # the half-step lattice from a cell before the box to a cell after: cell
        # centres (masked in and out), face centres, edges and corners, and outside points
        steps = [np.arange(-2, 2 * r + 3) for r in dom.resolution]
        lattice = lo + np.stack(np.meshgrid(*steps, indexing="ij"), axis=-1).reshape(-1, dom.dim) * (h / 2)
        rng = np.random.default_rng(5)
        near = lattice[rng.choice(len(lattice), 300)]
        points = [
            lattice,
            # within eps of a face, edge or corner, and just beyond it
            near + rng.choice([-0.5, 0.5], size=near.shape) * eps,
            near + rng.choice([-3.0, 3.0], size=near.shape) * eps,
            lo + rng.uniform(-0.2, 1.2, size=(300, dom.dim)) * h * dom.resolution,
        ]
        seen = set()
        for p in np.concatenate(points):
            got = dom.contains_point(p)
            assert got == contains_point_reference(dom, p), p
            seen.add(got)
        assert seen == {True, False}
        masked_out = np.argwhere(~dom.mask)
        if masked_out.size:  # half a cell from every other cell's closure
            centre = lo + (masked_out[0] + 0.5) * h
            assert not dom.contains_point(centre)

    def test_non_finite_points_are_outside(self):
        dom = CONTAINS_CASES["box_2d"]()
        for p in ([np.nan, 1.0], [np.inf, 1.0], [1.5, -np.inf]):
            assert not dom.contains_point(p) and not contains_point_reference(dom, np.array(p))


class TestRadialUnitVector:
    def test_euclidean_unit(self):
        v = radial_unit_vector(EUC2, np.zeros(2), np.array([[3.0, 4.0]]))
        assert v[0] == pytest.approx([0.6, 0.8])

    def test_hyperbolic_unit_metric_norm(self):
        rng = np.random.default_rng(5)
        o = np.array([0.2, 0.9])
        pts = rng.uniform(0.3, 2.5, size=(40, 2))
        v = radial_unit_vector(HYP2, o, pts)
        norms = np.linalg.norm(v, axis=1) / pts[:, -1]
        assert norms == pytest.approx(np.ones(40), abs=1e-12)

    @pytest.mark.parametrize(
        "o, p",
        [
            ([0.1, 1.3], [0.9, 0.7]),
            ([0.1, 1.3], [0.4, 2.2]),
            ([0.1, 1.3], [0.1, 2.0]),
            ([0.1, 1.3], [0.1, 0.6]),  # straight below the origin
            ([0.0, 4.0], [0.0, 6.5]),  # straight above the origin
            ([0.2, -0.3, 1.1], [0.7, 0.4, 0.5]),  # a 3-D half-space point
        ],
    )
    def test_hyperbolic_direction_matches_distance_growth(self, o, p):
        # walking a small step along d_r increases the distance to o at unit rate
        metric = hyperbolic_half_plane(len(o))
        o, p = np.array(o), np.array(p)
        t = radial_unit_vector(metric, o, p[None])[0]
        assert np.linalg.norm(t) / p[-1] == pytest.approx(1.0, abs=1e-12)
        eps = 1e-6
        d0 = geodesic_distance(metric, o[None], p)[0]
        d1 = geodesic_distance(metric, o[None], p + eps * t)[0]
        assert (d1 - d0) / eps == pytest.approx(1.0, abs=1e-4)


class TestWeightedVolume:
    def test_refinement_converges_to_weighted_volume(self):
        # int over (0,1)x(1,2) of x2^-2 = 1/2; midpoint sums converge O(h)
        exact = 0.5
        errs = []
        for res in (8, 16, 32):
            dom = make_box_domain([(0, 1), (1, 2)], [res, res], HYP2)
            lo = np.array([b[0] for b in dom.bounds])
            h = np.array(dom.h)
            centers = lo + (np.argwhere(dom.mask) + 0.5) * h
            total = np.sum(volume_weight(HYP2, centers)) * dom.cell_volume()
            errs.append(abs(total - exact))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-3


# The general formulas that GridDomain and gradient_norm replaced with
# closed forms on the uniform grid, kept as bitwise references.
def corner_nodes_reference(dom):
    offsets = np.array(list(itertools.product((0, 1), repeat=dom.dim)), dtype=np.int64)
    corners = np.argwhere(dom.mask)[:, None, :] + offsets[None, :, :]
    return np.ravel_multi_index(tuple(corners[..., d] for d in range(dom.dim)), dom.node_shape)


def quadrature_reference(dom):
    nodes, _ = gauss_rule(dom.dim)
    lo, h = np.array([b[0] for b in dom.bounds]), np.array(dom.h)
    base = lo[None, :] + np.argwhere(dom.mask) * h[None, :]
    return base[:, None, :] + nodes[None, :, :] * h[None, None, :]


def row_norms_reference(cov):
    return np.linalg.norm(cov, axis=1)


GRID_CASES = {
    "interval": lambda: make_box_domain([(0.1, np.pi)], [7], euclidean(1)),
    "square_256": lambda: make_box_domain([(0, np.pi), (0, np.pi)], [256, 256], EUC2),
    "ball_box_3d": lambda: make_box_domain(
        [(-1.0, 1.0), (-1.3, 0.7), (0.2, 2.3)],
        [9, 10, 11],
        euclidean(3),
        lambda c: np.linalg.norm(c - np.array([0.0, -0.3, 1.25]), axis=1) <= 0.95,
    ),
    "half_space": lambda: make_box_domain([(-0.3, 1.7), (0.5, 2.25)], [13, 17], HYP2),
}


@pytest.fixture(scope="module", params=GRID_CASES)
def grid(request):
    dom = GRID_CASES[request.param]()
    assert request.param != "ball_box_3d" or 0 < dom.n_cells < np.prod(dom.resolution)
    return dom


class TestClosedFormGrid:
    def test_corner_nodes(self, grid):
        got, expected = grid.cell_corner_nodes(), corner_nodes_reference(grid)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_quadrature_points(self, grid):
        pts, w = grid.quadrature()
        assert np.array_equal(pts, quadrature_reference(grid).reshape(-1, grid.dim))
        assert np.array_equal(w, gauss_rule(grid.dim)[1])

    def test_gradient_norm(self, grid):
        pts, _ = grid.quadrature()
        cov = np.random.default_rng(grid.dim).standard_normal(pts.shape)
        rho = grid.metric.rho(pts)
        got, expected = gradient_norm(grid.metric, pts, cov), row_norms_reference(cov) * rho
        if grid.dim <= 2:
            assert np.array_equal(got, expected)
        else:
            # In 3-D the einsum adds a row's squares in another order than
            # np.linalg.norm, so the last bit can move.  compute_T0,
            # geodesic_distance and radial_unit_vector keep np.linalg.norm:
            # their values reach the written outputs, which stay bit-identical.
            assert np.all(np.abs(got - expected) <= 2 * np.spacing(np.maximum(got, expected)))
