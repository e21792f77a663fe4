"""Ambient metrics, masked box grids, and geometric primitives.

Both metric models are conformally flat, g = rho^-2 delta with an affine
conformal factor rho: flat Euclidean space (rho = 1) and the upper-half-space
model of hyperbolic space (curvature -1, rho = x_n on x_n > 0).  The volume
weight, the inverse metric, gradient norms, the radial direction and the
domain checks derive from rho alone; only the geodesic distance keeps one
closed form per model.  Points travel in one layout: every pointwise
function takes an (m, n) batch and returns one value or vector per row,
and a reference point such as the origin is an (n,) array.  Domains are
axis-aligned boxes carrying a per-cell inside-mask; curved shapes are
approximated by staircase masks.  Their Gauss points, cell by cell, are
formed from the grid for any run of cells and never held.  All objects
are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDomain,
    InvalidHalfPlane,
    OriginInsideDomain,
    OutOfDomain,
)


@dataclass(frozen=True)
class MetricModel:
    """Ambient metric g = rho^-2 delta: Euclidean R^n or the hyperbolic upper half-space.

    rho is affine, so its gradient b is constant and Hess rho = 0; the
    metric formulas in this module and in ``fields`` rely on that.
    """

    dim: int
    is_hyperbolic: bool

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.is_hyperbolic and self.dim < 2:
            raise ValueError("hyperbolic model needs dimension >= 2")

    @property
    def grad_rho(self) -> np.ndarray | None:
        """b = grad rho: e_n in the half-space, None (a structural zero) where rho = 1."""
        return np.eye(self.dim)[-1] if self.is_hyperbolic else None

    def rho(self, pts: np.ndarray) -> np.ndarray:
        """The conformal factor at an (m, n) point array: 1, or <b, x> = x_n, read off as the last coordinate."""
        return pts[:, -1].copy() if self.is_hyperbolic else np.ones(pts.shape[0])


def euclidean(dim: int) -> MetricModel:
    return MetricModel(dim, False)


def hyperbolic_half_plane(dim: int) -> MetricModel:
    return MetricModel(dim, True)


def _rho(metric: MetricModel, pts: np.ndarray) -> np.ndarray:
    """rho at the points, which must lie in the model's domain rho > 0."""
    rho = metric.rho(pts)
    if np.any(rho <= 0.0):
        raise OutOfDomain("the metric needs rho > 0 (x_n > 0 in the half-space)")
    return rho


def volume_weight(metric: MetricModel, pts: np.ndarray) -> np.ndarray:
    """Riemannian volume density sqrt(det g) = rho^-n against coordinate measure, (m,)."""
    return _rho(metric, pts) ** (-float(metric.dim))


def inverse_metric_factor(metric: MetricModel, pts: np.ndarray) -> np.ndarray:
    """Conformal factor of the inverse metric, g^ij = rho^2 delta^ij, (m,)."""
    return _rho(metric, pts) ** 2


def gradient_norm(metric: MetricModel, pts: np.ndarray, coordinate_gradient: np.ndarray) -> np.ndarray:
    """Metric norms |grad f|_g = rho |df| of the (m, n) gradients raised from covectors df."""
    cov = coordinate_gradient
    # one pass, no squares array, then in place; for n >= 3 it can move the last
    # bit against np.linalg.norm, which only the 1e-10 unit-gradient gate in bounds reads
    norm = np.einsum("ij,ij->i", cov, cov)
    np.sqrt(norm, out=norm)
    if metric.is_hyperbolic:  # else rho = 1
        norm *= _rho(metric, pts)
    return norm


def geodesic_distance(metric: MetricModel, pts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geodesic distances (m,) from the (m, n) points to the point y (n,)."""
    _rho(metric, pts)
    _rho(metric, y[None, :])
    if metric.is_hyperbolic:
        diff2 = np.sum((pts - y) ** 2, axis=1)
        arg = 1.0 + diff2 / (2.0 * pts[:, -1] * y[-1])
        # clamp against roundoff just below 1
        return np.arccosh(np.maximum(arg, 1.0))
    return np.linalg.norm(pts - y, axis=1)


def radial_unit_vector(metric: MetricModel, origin: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Coordinate components (m, n) of the metric-unit direction of increasing distance from `origin`.

    v = rho grad A / |grad A| is the metric gradient of A = |x - o|^2 / (rho(x) rho(o)),
    normalised.  The distance d grows with A in both models (d = sqrt(A)
    flat, cosh d = 1 + A / 2 in the half-space), so v = grad d, the tangent
    at p of the geodesic from the origin through p.
    """
    rho = _rho(metric, pts)
    _rho(metric, origin[None, :])
    # grad A over its positive factor 2 / (rho(x) rho(o)): (x - o) - |x - o|^2 b / (2 rho)
    w = pts - origin
    b = metric.grad_rho
    if b is not None:
        w = w - (np.sum(w * w, axis=1) / (2.0 * rho))[:, None] * b
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms == 0.0):
        raise OutOfDomain("radial direction undefined at the origin itself")
    return rho[:, None] * (w / norms[:, None])


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
        self._cell_volume = float(np.prod(self.h))
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
        # scipy's index type for a CSR over every node's 3^n stencil (assembly._stencil_csr), so no copies
        itype = np.int32 if 3**n * interior.size < 2**31 else np.int64
        self.interior_flat = np.flatnonzero(interior.ravel()).astype(itype, copy=False)
        if self.interior_flat.size == 0:
            raise EmptyDomain("mask leaves no interior node")
        self._dof_of_node = np.full(interior.size, -1, dtype=itype)
        self._dof_of_node[self.interior_flat] = np.arange(self.interior_flat.size, dtype=itype)

        self.n_cells = int(np.count_nonzero(mask))  # a box with masked-out cells keeps the flat indices of the rest
        self._cell_flat = None if self.n_cells == mask.size else np.flatnonzero(mask).astype(itype, copy=False)
        # flat offsets of the 2^n corners from a cell's first corner, for cell_corner_nodes
        strides = np.cumprod((1,) + self.node_shape[:0:-1])[::-1]
        self._corner_offsets = np.array(list(itertools.product((0, 1), repeat=n))) @ strides
        nodes, self._weights = gauss_rule(n)
        # per axis, (lo + c h) + node h: coordinate d of each Gauss node of every cell c along the axis
        lows = [lo + np.arange(r) * h for (lo, _), r, h in zip(bounds, resolution, self.h)]
        self._axis_points = [low[:, None] + x * h for low, h, x in zip(lows, self.h, nodes.T)]

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

    def _cell_index(self, cells: slice) -> tuple:
        """Multi-index, one array per axis, of the masked cells ``cells`` (on a full box, their flat indices)."""
        flat = np.arange(*cells.indices(self.n_cells)) if self._cell_flat is None else self._cell_flat[cells]
        return np.unravel_index(flat, self.resolution)

    def cell_corner_nodes(self, cells: slice = slice(None)) -> np.ndarray:
        """(ncell, 2^n) flat node indices of the corners of the masked cells ``cells`` (all by default).

        Corner c of the cell at multi-index m has flat index (m + c) . s for
        the node strides s: the cell's first corner plus a constant offset.
        """
        first = np.ravel_multi_index(self._cell_index(cells), self.node_shape)
        return (self._corner_offsets[:, None] + first).T

    def cell_volume(self) -> float:
        return self._cell_volume

    def quadrature(self, cells: slice = slice(None)):
        """Tensor-product 2-point Gauss rule on the masked cells ``cells`` (all by default).

        Returns (points, weights): the (len(cells) nq, n) points, formed from
        the grid cell by cell, so the nq = 2^n points of the i-th cell are
        rows i nq .. i nq + nq - 1, and the (nq,) weights of one cell,
        summing to 1; multiply by cell_volume() for coordinate-measure integration.
        """
        multi = self._cell_index(cells)
        pts = np.empty((multi[0].size * self._weights.size, self.dim))
        for d, table in enumerate(self._axis_points):
            pts[:, d] = np.take(table, multi[d], axis=0).ravel()
        return pts, self._weights

    def contains_point(self, p) -> bool:
        """Whether p lies in the closure of some masked-in cell, to within eps per axis.

        Only a cell within one index of p's own cell on every axis can hold
        p (eps is far below a cell side), so only those up to 3^n masked-in
        cells are tested, each with the full closed-cell test.
        """
        p = np.asarray(p, dtype=float)
        lo = np.array([b[0] for b in self.bounds])
        h = np.array(self.h)
        res = np.array(self.resolution)
        eps = 1e-12 * np.maximum(np.abs(lo) + np.abs(h) * res, 1.0)
        own = np.floor((p - lo) / h)
        if not np.all(np.isfinite(own)):  # no cell holds an inf or nan coordinate
            return False
        near = [np.arange(max(c - 1, 0), min(c + 2, r)) for c, r in zip(np.clip(own, 0, res - 1).astype(int), res)]
        cells = np.stack(np.meshgrid(*near, indexing="ij"), axis=-1).reshape(-1, self.dim)
        corner_lo = lo[None, :] + cells[self.mask[tuple(cells.T)]] * h[None, :]
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


def domain_origin_distance(domain: GridDomain, origin: np.ndarray) -> float:
    """Grid approximation (from above) of dist(domain, origin) for an origin (n,) outside the closed domain.

    Minimizes the geodesic distance over the corner nodes of masked-in
    cells, in flat node order; since nodes lie in the closed domain this
    never undershoots the true distance.  Those nodes are the OR of the
    cell mask shifted by each of the 2^n corner offsets.
    """
    if origin.shape != (domain.dim,):
        raise ValueError("origin dimension mismatch")
    _rho(domain.metric, origin[None, :])
    if domain.contains_point(origin):
        raise OriginInsideDomain("origin lies in the closed masked region")
    corner = np.zeros(domain.node_shape, dtype=bool)
    for off in itertools.product((0, 1), repeat=domain.dim):
        corner[tuple(slice(o, o + r) for o, r in zip(off, domain.resolution))] |= domain.mask
    nodes = np.flatnonzero(corner)
    return float(np.min(geodesic_distance(domain.metric, domain.node_coords(nodes), origin)))
