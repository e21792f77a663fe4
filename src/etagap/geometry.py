"""Ambient metrics, masked box grids, and geometric primitives.

Both metric models are conformally flat, g = rho^-2 delta with an affine
conformal factor rho: flat Euclidean space (rho = 1) and the upper-half-space
model of hyperbolic space (curvature -1, rho = x_n on x_n > 0).  The volume
weight, the inverse metric, gradient norms, the radial direction and the
domain checks derive from rho alone; only the geodesic distance keeps one
closed form per model.  Domains are axis-aligned boxes carrying a per-cell
inside-mask; curved shapes are approximated by staircase masks.  All objects
are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    EmptyDomain,
    InvalidHalfPlane,
    OriginInsideDomain,
    OutOfDomain,
)


class MetricKind(Enum):
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class MetricModel:
    """Ambient metric g = rho^-2 delta: Euclidean R^n or the hyperbolic upper half-space.

    rho is affine, so its gradient b is constant and Hess rho = 0; the
    metric formulas in this module and in ``fields`` rely on that.
    """

    kind: MetricKind
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind is MetricKind.HYPERBOLIC and self.dim < 2:
            raise ValueError("hyperbolic model needs dimension >= 2")

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind is MetricKind.HYPERBOLIC

    @property
    def grad_rho(self) -> np.ndarray | None:
        """b = grad rho: e_n in the half-space, None (a structural zero) where rho = 1."""
        return np.eye(self.dim)[-1] if self.is_hyperbolic else None

    def rho(self, pts: np.ndarray) -> np.ndarray:
        """The conformal factor at an (m, n) point array: 1, or <b, x> (= x_n)."""
        b = self.grad_rho
        return np.ones(pts.shape[0]) if b is None else pts @ b


def euclidean(dim: int) -> MetricModel:
    return MetricModel(MetricKind.EUCLIDEAN, dim)


def hyperbolic_half_plane(dim: int) -> MetricModel:
    return MetricModel(MetricKind.HYPERBOLIC, dim)


def _as_points(p) -> tuple[np.ndarray, bool]:
    """Normalize a point or batch of points to shape (m, n)."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _rho(metric: MetricModel, pts: np.ndarray) -> np.ndarray:
    """rho at the points, which must lie in the model's domain rho > 0."""
    rho = metric.rho(pts)
    if np.any(rho <= 0.0):
        raise OutOfDomain("the metric needs rho > 0 (x_n > 0 in the half-space)")
    return rho


def volume_weight(metric: MetricModel, p):
    """Riemannian volume density sqrt(det g) = rho^-n against coordinate measure."""
    pts, single = _as_points(p)
    w = _rho(metric, pts) ** (-float(metric.dim))
    return float(w[0]) if single else w


def inverse_metric_factor(metric: MetricModel, p):
    """Conformal factor of the inverse metric, g^ij = rho^2 delta^ij."""
    pts, single = _as_points(p)
    f = _rho(metric, pts) ** 2
    return float(f[0]) if single else f


def gradient_norm(metric: MetricModel, p, coordinate_gradient):
    """Metric norm |grad f|_g = rho |df| of the gradient raised from a covector df."""
    pts, single = _as_points(p)
    rho = _rho(metric, pts)
    cov = np.asarray(coordinate_gradient, dtype=float)
    if cov.ndim == 1:
        cov = cov[None, :]
    # one pass, no squares array; for n >= 3 it can move the last bit against
    # np.linalg.norm, which only the 1e-10 unit-gradient gate in bounds reads
    norms = np.sqrt(np.einsum("ij,ij->i", cov, cov)) * rho
    return float(norms[0]) if single else norms


def geodesic_distance(metric: MetricModel, x, y):
    """Geodesic distance from x (a point or an (m, n) batch) to the point y."""
    xs, single = _as_points(x)
    ys, _ = _as_points(y)
    _rho(metric, xs)
    _rho(metric, ys)
    if metric.is_hyperbolic:
        diff2 = np.sum((xs - ys) ** 2, axis=1)
        arg = 1.0 + diff2 / (2.0 * xs[:, -1] * ys[:, -1])
        # clamp against roundoff just below 1
        d = np.arccosh(np.maximum(arg, 1.0))
    else:
        d = np.linalg.norm(xs - ys, axis=1)
    return float(d[0]) if single else d


def radial_unit_vector(metric: MetricModel, origin, p):
    """Coordinate components of the metric-unit direction of increasing distance from `origin`.

    v = rho grad A / |grad A| is the metric gradient of A = |x - o|^2 / (rho(x) rho(o)),
    normalised.  The distance d grows with A in both models (d = sqrt(A)
    flat, cosh d = 1 + A / 2 in the half-space), so v = grad d, the tangent
    at p of the geodesic from the origin through p.
    """
    pts, single = _as_points(p)
    o = np.asarray(origin, dtype=float)
    rho = _rho(metric, pts)
    _rho(metric, o[None, :])
    # grad A over its positive factor 2 / (rho(x) rho(o)): (x - o) - |x - o|^2 b / (2 rho)
    w = pts - o[None, :]
    b = metric.grad_rho
    if b is not None:
        w = w - (np.sum(w * w, axis=1) / (2.0 * rho))[:, None] * b
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms == 0.0):
        raise OutOfDomain("radial direction undefined at the origin itself")
    out = rho[:, None] * (w / norms[:, None])
    return out[0] if single else out


@dataclass(frozen=True)
class OriginPoint:
    """Reference point o outside the closed domain, for radial quantities."""

    coords: tuple[float, ...]

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def gauss_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product 2-point Gauss rule on the unit cube [0, 1]^dim.

    Returns (nodes, weights) with nodes of shape (2^dim, dim) in
    lexicographic order and weights of shape (2^dim,) summing to 1.
    """
    g = 0.5 / np.sqrt(3.0)
    nodes = np.array(list(itertools.product([0.5 - g, 0.5 + g], repeat=dim)))
    return nodes, np.full(nodes.shape[0], 0.5**dim)


class GridDomain:
    """Uniform Cartesian grid over a box with a per-cell inside-mask.

    Nodes touched only by masked-in cells (counting positions outside the
    box as masked-out) are interior degrees of freedom; every other node of
    a masked-in cell carries the homogeneous Dirichlet value 0.
    """

    def __init__(self, bounds, resolution, metric: MetricModel, mask: np.ndarray):
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        resolution = tuple(int(r) for r in resolution)
        if len(bounds) != metric.dim or len(resolution) != metric.dim:
            raise ValueError("bounds/resolution length must equal the metric dimension")
        for lo, hi in bounds:
            if not lo < hi:
                raise ValueError("each axis needs lo < hi")
        for r in resolution:
            if r < 2:
                raise ValueError("resolution must be >= 2 per axis")
        # rho is affine, so it is positive on the closed box iff at every corner
        if np.any(metric.rho(np.array(list(itertools.product(*bounds)))) <= 0.0):
            raise InvalidHalfPlane("the metric needs rho > 0 on the closed box (x_n > 0 in the half-space)")
        mask = np.array(mask, dtype=bool, copy=True)
        if mask.shape != resolution:
            raise ValueError("mask shape must equal the resolution")

        self.bounds = bounds
        self.resolution = resolution
        self.metric = metric
        self.mask = mask
        self.mask.setflags(write=False)
        self.h = tuple((hi - lo) / r for (lo, hi), r in zip(bounds, resolution))
        self.node_shape = tuple(r + 1 for r in resolution)
        self.node_axes = tuple(
            np.linspace(lo, hi, r + 1) for (lo, hi), r in zip(bounds, resolution)
        )

        padded = np.zeros(tuple(r + 2 for r in resolution), dtype=bool)
        padded[tuple(slice(1, -1) for _ in resolution)] = mask
        interior = np.ones(self.node_shape, dtype=bool)
        n = metric.dim
        for off in itertools.product((0, 1), repeat=n):
            sl = tuple(slice(o, o + s) for o, s in zip(off, self.node_shape))
            interior &= padded[sl]
        self.interior_flat = np.flatnonzero(interior.ravel())
        if self.interior_flat.size == 0:
            raise EmptyDomain("mask leaves no interior node")
        self._dof_of_node = np.full(int(np.prod(self.node_shape)), -1, dtype=np.int64)
        self._dof_of_node[self.interior_flat] = np.arange(self.interior_flat.size)

        cells = np.argwhere(mask)
        self.masked_cells = np.ascontiguousarray(cells)
        self._quad_cache = None

    @property
    def dim(self) -> int:
        return self.metric.dim

    @property
    def n_interior(self) -> int:
        return int(self.interior_flat.size)

    def dof_index(self) -> np.ndarray:
        """Flat node index -> DOF index (-1 for Dirichlet nodes)."""
        return self._dof_of_node

    def node_coords(self, flat_idx) -> np.ndarray:
        multi = np.unravel_index(np.asarray(flat_idx), self.node_shape)
        cols = [ax[m] for ax, m in zip(self.node_axes, multi)]
        return np.stack(cols, axis=-1)

    def interior_coords(self) -> np.ndarray:
        return self.node_coords(self.interior_flat)

    def cell_corner_nodes(self) -> np.ndarray:
        """(ncell, 2^n) flat node indices of each masked cell's corners.

        Corner c of the cell at multi-index m has flat index (m + c) . s for
        the node strides s: the cell's first corner plus a constant offset.
        """
        strides = np.cumprod((1,) + self.node_shape[:0:-1])[::-1]
        offsets = np.array(list(itertools.product((0, 1), repeat=self.dim))) @ strides
        return (self.masked_cells @ strides)[:, None] + offsets

    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def quadrature(self):
        """Tensor-product 2-point Gauss rule on every masked cell.

        Returns (points, weights) with points of shape (ncell, nq, n) and
        weights of shape (nq,) summing to 1; multiply by cell_volume() for
        coordinate-measure integration.
        """
        if self._quad_cache is None:
            nodes, w = gauss_rule(self.dim)
            pts = np.empty((len(self.masked_cells), len(w), self.dim))
            # per axis, in place: (lo + c h) + node h, the cell's low corner plus the node's offset
            for d, ((lo, _), h) in enumerate(zip(self.bounds, self.h)):
                np.add((lo + self.masked_cells[:, d] * h)[:, None], nodes[:, d] * h, out=pts[:, :, d])
            self._quad_cache = (pts, w)
        return self._quad_cache

    def quad_points_flat(self) -> np.ndarray:
        pts, _ = self.quadrature()
        return pts.reshape(-1, self.dim)

    def contains_point(self, p) -> bool:
        """Whether p lies in the closure of some masked-in cell."""
        p = np.asarray(p, dtype=float)
        lo = np.array([b[0] for b in self.bounds])
        h = np.array(self.h)
        eps = 1e-12 * np.maximum(np.abs(lo) + np.abs(h) * np.array(self.resolution), 1.0)
        corner_lo = lo[None, :] + self.masked_cells * h[None, :]
        corner_hi = corner_lo + h[None, :]
        inside = np.all(p >= corner_lo - eps, axis=1) & np.all(p <= corner_hi + eps, axis=1)
        return bool(np.any(inside))


def make_box_domain(bounds, resolution, metric: MetricModel, mask_rule=None) -> GridDomain:
    """Build a masked box domain, evaluating the mask at cell centers."""
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    resolution = tuple(int(r) for r in resolution)
    axes = [
        lo + (np.arange(r) + 0.5) * (hi - lo) / r for (lo, hi), r in zip(bounds, resolution)
    ]
    if mask_rule is None:
        mask = np.ones(resolution, dtype=bool)
    else:
        grids = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([g.ravel() for g in grids], axis=1)
        mask = np.asarray(mask_rule(centers), dtype=bool).reshape(resolution)
    return GridDomain(bounds, resolution, metric, mask)


def validate_origin(domain: GridDomain, origin: OriginPoint) -> None:
    o = origin.array()
    if o.shape != (domain.dim,):
        raise ValueError("origin dimension mismatch")
    _rho(domain.metric, o[None, :])
    if domain.contains_point(o):
        raise OriginInsideDomain("origin lies in the closed masked region")


def domain_origin_distance(domain: GridDomain, origin: OriginPoint) -> float:
    """Grid approximation (from above) of dist(domain, origin).

    Minimizes the geodesic distance over the corner nodes of masked-in
    cells; since nodes lie in the closed domain this never undershoots the
    true distance.
    """
    validate_origin(domain, origin)
    nodes = np.unique(domain.cell_corner_nodes().ravel())
    return float(np.min(geodesic_distance(domain.metric, domain.node_coords(nodes), origin.array())))
