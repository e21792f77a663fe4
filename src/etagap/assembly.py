"""Sparse stiffness/mass assembly for the weighted variational pair.

The discrete problem is the generalized pencil A u = lambda B u with

    A[i,j] = integral <T grad(phi_i), grad(phi_j)>_g  e^(-eta) dV_g
    B[i,j] = integral phi_i phi_j e^(-eta) dV_g

over multilinear (Q1) nodal elements on the masked-in cells, 2-point Gauss
quadrature per axis, and Dirichlet conditions imposed by removing boundary
rows/columns.  The Gauss points are numbered cell by cell (m = ncell nq),
and so is every quantity at them.  Each is formed per chunk of cells and
never held whole: the points, weights and metric factor (``quad_data``),
the fields and DOF vectors there (``at_quadrature``), and sums over the
points (``pairwise_sums``).  Only ``assemble`` views a chunk as
(ncell, ...) blocks.  Both matrices are built straight into CSR from the
grid's 3^n node stencil: each unordered index pair is summed once and read
from both sides, so A == A^T and B == B^T exactly.  They share one
read-only int32 sparsity pattern without Dirichlet columns (see
``_stencil_csr``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NonFiniteValue
from .fields import (
    AffineScalar,
    ConstantScalar,
    ConstantTensor,
    DiagonalTensor,
    FieldSample,
    ScalarField,
    TensorField,
    tensor_eigen_range,
)
from .geometry import GridDomain, gauss_rule, inverse_metric_factor, volume_weight

CHUNK_ROWS = 2**13  # cells per product in the stiffness values
QUAD_CELLS = 2**10  # cells per chunk of at_quadrature; at least 3, so that even_chunks makes no one-cell chunk


def even_chunks(count: int, size: int) -> list[slice]:
    """Near-equal slices of range(count), at most ``size`` long and at least half that when there are two or more.

    BLAS rounds a product of one row differently (numpy makes it a gemv),
    so a product taken chunk by chunk keeps the bits of the whole as long
    as no chunk is one row where the whole is more.
    """
    cuts = np.linspace(0, count, -(-count // size) + 1).astype(int)
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


@functools.lru_cache(maxsize=16)  # every reader pass of a pair asks for the same tables
def _reference_elements(n: int, h: tuple):
    """Shape values and physical gradients at the Gauss points of a cell with sides h.

    Returns (N, dN) with N of shape (nq, nloc) and dN of shape
    (nq, nloc, n); nloc = 2^n corners in lexicographic bit order.
    """
    qpts, _ = gauss_rule(n)
    corners = list(itertools.product((0, 1), repeat=n))
    nq, nloc = qpts.shape[0], len(corners)
    N = np.empty((nq, nloc))
    dN = np.empty((nq, nloc, n))
    h = np.array(h)
    for a, corner in enumerate(corners):
        basis = np.where(np.array(corner)[None, :] == 1, qpts, 1.0 - qpts)
        N[:, a] = np.prod(basis, axis=1)
        for d in range(n):
            parts = basis.copy()
            parts[:, d] = 1.0
            sgn = 1.0 if corner[d] == 1 else -1.0
            dN[:, a, d] = sgn * np.prod(parts, axis=1) / h[d]
    for table in (N, dN):  # every caller shares them through the cache
        table.setflags(write=False)
    return N, dN


@dataclass
class OperatorPair:
    """Assembled (A, B), the DOF bookkeeping, the fields T and eta, and T's
    extreme eigenvalues epsilon <= delta at the domain's Gauss points.  The
    points, weights, metric factor and fields there come per chunk of cells
    (``quad_data``, ``at_quadrature``)."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    domain: GridDomain
    field: TensorField
    drift: ScalarField
    epsilon: float
    delta: float

    @property
    def ndof(self) -> int:
        return self.A.shape[0]


def quad_data(domain: GridDomain, drift: ScalarField, cells: slice = slice(None)):
    """The (len, n) Gauss points of the masked cells ``cells``, their measure weights e^(-eta) W_g and metric factor.

    Where rho = 1 both metric factors are 1: the weights skip that exact
    multiply and the gradient factor is the float 1.0, not an array of ones.
    """
    pts, w = domain.quadrature(cells)
    rho = domain.metric.rho(pts) if domain.metric.is_hyperbolic else None  # > 0 on the box: read once, unchecked
    with np.errstate(over="ignore"):
        # each cell's nq Gauss weights times the cell volume, point by point
        dm = (np.exp(-drift.value(pts)).reshape(-1, w.size) * (w * domain.cell_volume())).ravel()
        if rho is not None:
            dm *= rho ** (-float(domain.dim))  # volume_weight
    return pts, dm, 1.0 if rho is None else rho**2  # inverse_metric_factor


def _node_arrays(domain: GridDomain, v: np.ndarray, half: int) -> np.ndarray:
    """Per-cell pair values v (npair, ncell) summed into one node array per stencil offset o >= 0.

    Pair (i, j) of a cell joins nodes r and r + o, o with flat offset >= 0;
    its values are added by slices over the cell grid into o's node array
    at r.  One grid array takes one pair's values at a time, and its
    masked-out cells stay zero.  The arrays come stacked by |o| and flat.
    """
    n, res = domain.dim, domain.resolution
    corners = np.array(list(itertools.product((0, 1), repeat=n)))
    cell = np.zeros(res)
    inside = np.flatnonzero(domain.mask)
    stacked = np.zeros((half + 1) * domain.dof_index().size)
    node_arrays = stacked.reshape((half + 1,) + domain.node_shape)
    for p, (i, j) in enumerate(zip(*np.triu_indices(len(corners)))):
        k = np.ravel_multi_index(corners[j] - corners[i] + 1, (3,) * n) - half
        cell.reshape(-1)[inside] = v[p]
        node_arrays[k][tuple(slice(c, c + r) for c, r in zip(corners[i], res))] += cell
    return stacked


def _stencil_csr(domain: GridDomain, makers) -> list[sp.csr_matrix]:
    """Symmetric CSR matrices over the interior DOFs from per-cell pair values, on one shared pattern.

    Each maker returns one matrix's (npair, ncell) values when called, so
    that they live only while that matrix is built.  Each matrix reads its
    entries from ``_node_arrays``: entry (r, r + o),
    o a 3^n stencil offset with flat offset >= 0, at r in o's array, and
    entry (r, r - o) from the same array at r - o, so the matrix equals its
    transpose bit for bit.  A row takes the stencil in increasing flat
    offset, which sorts its columns, as DOF numbers increase with the flat
    node index.  Dirichlet columns are left out of the pattern.  The
    pattern (``indices``, ``indptr``) and the gather index into the node
    arrays are built once, in the domain's index type, scipy's own (int32 up
    to 2^31 entries, so scipy copies neither), and every matrix shares the
    pattern read-only; only a matrix with an exactly zero value gets a private
    copy, with those entries dropped.
    """
    nnode = domain.dof_index().size
    stencil = np.array(list(itertools.product((-1, 0, 1), repeat=domain.dim)))  # stencil[-1 - k] == -stencil[k]
    half = len(stencil) // 2  # the zero offset
    rows = domain.interior_flat  # never on the box boundary, so every stencil node exists
    itype = rows.dtype
    flat_off = (stencil @ np.cumprod((1,) + domain.node_shape[:0:-1])[::-1]).astype(itype)
    cols = domain.dof_index()[rows[:, None] + flat_off]
    keep = cols >= 0
    indices = cols[keep]
    del cols
    indptr = np.zeros(rows.size + 1, dtype=itype)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    # (r, r + o) in the node arrays stacked by |o| sits at r if o >= 0, else at r + o
    shift = (np.abs(np.arange(len(stencil)) - half) * nnode + np.minimum(flat_off, 0)).astype(itype)
    src = (rows[:, None] + shift)[keep]
    del keep
    indices.setflags(write=False)
    indptr.setflags(write=False)
    out = []
    for make in makers:
        data = _node_arrays(domain, make(), half)[src]
        if data.all():
            out.append(sp.csr_matrix((data, indices, indptr), shape=(rows.size,) * 2))
        else:  # eliminate_zeros works in place, on this matrix's own pattern
            out.append(sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(rows.size,) * 2))
            out[-1].eliminate_zeros()
    return out


def assemble(domain: GridDomain, field: TensorField, drift: ScalarField) -> OperatorPair:
    """Build the stiffness/mass pair over the interior DOFs; NonFiniteValue unless every weight is finite and > 0.

    T's extreme eigenvalues come from its chunks in the A pass, each read
    by ``tensor_eigen_range``, which raises NotPositiveDefinite.
    """
    N, dN = _reference_elements(domain.dim, domain.h)
    nq, nloc, n = dN.shape
    # every unordered local pair (i <= j) of every cell from products with a
    # constant table, one column per pair in triu order; the point data is
    # viewed by cells here, (ncell, nq ...), and nowhere else:
    # A_c[i, j] = sum_qab (dm grad_factor T)[c, q, a, b] dN[q, i, a] dN[q, j, b]
    iu, ju = np.triu_indices(nloc)
    grad_pairs = np.einsum("qia,qjb->qabij", dN, dN)[..., iu, ju].reshape(nq * n * n, -1)

    def pair_values(rows, table):
        # (npair, ncell), one contiguous row per pair, by chunks of cells, so
        # that no per-point array exists at full size
        out = np.empty((table.shape[1], domain.n_cells))
        for cells in even_chunks(out.shape[1], CHUNK_ROWS):
            out[:, cells] = (rows(cells) @ table).T
        return out

    weights = []  # each chunk's weights, from A's pass to B's, which takes them in the same order
    eigen_ranges = []  # each chunk's (smallest, largest) eigenvalue of T

    def a_rows(cells):
        pts, dm, grad_factor = quad_data(domain, drift, cells)
        theta = field.matrix(pts)
        eigen_ranges.append(tensor_eigen_range(theta))
        if not np.all((dm > 0.0) & np.isfinite(dm)):  # else B would be singular or non-finite
            raise NonFiniteValue("measure weight e^(-eta) W_g is not finite and positive at every quadrature point")
        weights.append(dm)
        return ((dm * grad_factor)[:, None, None] * theta).reshape(-1, nq * n * n)

    A, B = _stencil_csr(
        domain,
        (
            lambda: pair_values(a_rows, grad_pairs),
            lambda: pair_values(lambda cells: weights.pop(0).reshape(-1, nq), N[:, iu] * N[:, ju]),
        ),
    )
    lows, highs = zip(*eigen_ranges)
    return OperatorPair(A, B, domain, field, drift, min(lows), max(highs))


@dataclass
class AxisFactors:
    """Dense 1-D matrices on the interior nodes of each axis, axis 0 first.

    Up to rounding, A = sum_a M_0 (x) .. (x) K_a (x) .. (x) M_{n-1} with
    K_a = ``stiffness[a]`` and M_b = ``mass[b]``, and B = B_0 (x) .. (x)
    B_{n-1} with B_b = ``b_mass[b]``; axis 0 is slowest, as in the DOF
    numbering.  The pencil is ``separable`` when every B_b is M_b.
    """

    stiffness: list[np.ndarray]
    mass: list[np.ndarray]
    b_mass: list[np.ndarray]
    separable: bool

    @property
    def axis_ndof(self) -> list[int]:
        return [m.shape[0] for m in self.mass]


def _line_matrix(h: float, weight: np.ndarray, stiffness: bool) -> np.ndarray:
    """The 1-D Q1 stiffness or mass matrix of one axis on its interior nodes.

    ``weight`` (ncell, 2) is the integrand weight times the Gauss measure at
    each cell's two Gauss points.  The element values come from the same
    reference tables and products as in ``assemble``.
    """
    N, dN = _reference_elements(1, (h,))
    iu, ju = np.triu_indices(2)
    table = dN[:, iu, 0] * dN[:, ju, 0] if stiffness else N[:, iu] * N[:, ju]
    vals = weight @ table  # per cell: local pairs (0, 0), (0, 1), (1, 1)
    off = vals[1:-1, 1]
    return np.diag(vals[:-1, 2] + vals[1:, 0]) + np.diag(off, 1) + np.diag(off, -1)


def _diagonal_entries(field: TensorField) -> list | None:
    """T_aa for each axis a, as a float or as a profile along one axis; None unless T is so."""
    if isinstance(field, ConstantTensor):
        mat = field.mat
        return [float(v) for v in np.diag(mat)] if np.array_equal(mat, np.diag(np.diag(mat))) else None
    if isinstance(field, DiagonalTensor):
        return [c.c0 if c.profile == "const" or c.c1 == 0.0 else c for c in field.coefs]
    return None


def axis_factors(pair: OperatorPair) -> AxisFactors | None:
    """The per-axis factors of the pencil, or None if its weights do not split by axis.

    On an unmasked box of dimension >= 2 with a diagonal T whose entries are
    constants or profiles along one axis, a constant or affine eta and
    rho = 1 or x_n, the stiffness weights e^(-eta) rho^(2-n) T_aa and the
    mass weight e^(-eta) rho^-n are products of 1-D functions, and so is the
    2-point Gauss rule.  Term a of the stiffness then has the 1-D stiffness
    K_a on axis a and a 1-D mass on every other axis b.  The factors exist
    when, on every axis b, the masses of all terms a != b agree; in 2-D
    they always do.  The constant of eta goes to axis 0, a constant T_aa to
    K_a and a profile to the axis it varies along.
    """
    domain, field, drift = pair.domain, pair.field, pair.drift
    n, metric = domain.dim, domain.metric
    entries = _diagonal_entries(field)
    if n < 2 or not domain.mask.all() or entries is None:
        return None
    if isinstance(drift, ConstantScalar):
        slopes, c0 = np.zeros(n), drift.c
    elif isinstance(drift, AffineScalar):
        slopes, c0 = drift.b, drift.c0
    else:
        return None

    nodes, w = gauss_rule(1)
    lines, a_weight, b_weight = [], [], []
    for ax in range(n):
        (lo, _), h, r = domain.bounds[ax], domain.h[ax], domain.resolution[ax]
        x = lo + np.arange(r)[:, None] * h + nodes[:, 0] * h  # (ncell, 2), as GridDomain.quadrature
        line = np.zeros((x.size, n))
        line[:, ax] = x.ravel()
        dm = w * h * np.exp(-((c0 if ax == 0 else 0.0) + x * slopes[ax]))
        gf = 1.0
        if metric.grad_rho is not None and metric.grad_rho[ax]:  # rho = x_n varies along the last axis only
            dm = dm * volume_weight(metric, line).reshape(r, 2)
            gf = inverse_metric_factor(metric, line).reshape(r, 2)
        lines.append(line)
        a_weight.append(dm * gf)
        b_weight.append(dm)

    weights = [list(a_weight) for _ in range(n)]  # weights[a][b]: term a's weight on axis b
    for a, entry in enumerate(entries):
        if isinstance(entry, float):
            weights[a][a] = weights[a][a] * entry
        else:
            weights[a][entry.axis] = weights[a][entry.axis] * entry.value(lines[entry.axis]).reshape(-1, 2)
    mass_weight = []
    for b in range(n):
        first, *rest = (weights[a][b] for a in range(n) if a != b)
        if not all(np.array_equal(first, other) for other in rest):
            return None
        mass_weight.append(first)

    h = domain.h
    stiffness = [_line_matrix(h[a], weights[a][a], True) for a in range(n)]
    mass = [_line_matrix(h[b], mass_weight[b], False) for b in range(n)]
    separable = all(np.array_equal(m, bw) for m, bw in zip(mass_weight, b_weight))
    b_mass = mass if separable else [_line_matrix(h[b], b_weight[b], False) for b in range(n)]
    return AxisFactors(stiffness, mass, b_mass, separable)


def project_function(domain: GridDomain, f: ScalarField) -> np.ndarray:
    """Nodal interpolation: values of f at the interior nodes."""
    values = f.value(domain.interior_coords())
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("function not finite at some interior node")
    return values


def at_quadrature(pair: OperatorPair, u, *others):
    """The fields and the Q1 interpolants of DOF vectors at the quadrature points, chunk by chunk of cells.

    Yields (sample, dm, grad_factor, values, gradients) for ``even_chunks``
    of at most ``QUAD_CELLS`` cells: the FieldSample at the chunk's Gauss
    points, their ``quad_data`` weights and metric factor, the values
    (k, len) of u and the others, one contiguous row each, and the
    coordinate gradients (len, n) of u, in buffers that the next chunk
    overwrites.  Each vector's corner values are multiplied by the tables
    of shape values (and gradients); no chunk is one cell where the domain
    has more, so every value has the bits of one product over all cells.
    """
    vectors = [np.asarray(v, dtype=float) for v in (u, *others)]
    for v in vectors:
        if v.shape[0] != pair.ndof:
            raise DimensionMismatch(f"expected {pair.ndof} entries, got {v.shape[0]}")
    domain = pair.domain
    N, dN = _reference_elements(domain.dim, domain.h)
    nq, nloc, n = dN.shape
    value_table, grad_table = np.ascontiguousarray(N.T), dN.transpose(1, 0, 2).reshape(nloc, -1)
    chunks = even_chunks(domain.n_cells, QUAD_CELLS)
    longest = max(c.stop - c.start for c in chunks)
    values, grads = np.empty((len(vectors), longest * nq)), np.empty((longest, nq * n))
    for cells in chunks:
        dof = domain.dof_index()[domain.cell_corner_nodes(cells)]
        ncell = len(dof)
        for i, v in enumerate(vectors):
            corner_vals = v[dof]
            corner_vals[dof < 0] = 0.0  # a Dirichlet corner
            np.matmul(corner_vals, value_table, out=values[i, : ncell * nq].reshape(ncell, nq))
            if i == 0:
                np.matmul(corner_vals, grad_table, out=grads[:ncell])
        del dof, corner_vals  # no gathered array lives beside the caller's work
        pts, dm, grad_factor = quad_data(domain, pair.drift, cells)
        sample = FieldSample(pair.field, pair.drift, domain.metric, pts)
        yield sample, dm, grad_factor, values[:, : ncell * nq], grads[:ncell].reshape(-1, n)


PAIRWISE_RUN = 2**11  # values per stream that pairwise_sums sums with one np.sum, at least numpy's 128-value block


def pairwise_sums(chunks, m: int) -> list:
    """The sums of k streams of m doubles, each with the bits of one np.sum over the whole stream.

    ``chunks`` yields the next values of every stream, k fresh (len,)
    arrays at a time.  np.sum adds to 0.0 the pairwise sum of a contiguous
    array, which halves a run of n > 128 values at n // 2 rounded down to
    a multiple of 8.  The same halving runs here down to runs of at most
    ``PAIRWISE_RUN`` values, each summed by np.sum once its chunks are in,
    so less than one run and one chunk per stream is held.  A run's own 0.0
    changes at most the sign of a zero, which the last 0.0 undoes.
    """
    chunks, held = iter(chunks), []

    def run(n: int) -> np.ndarray:
        nonlocal held
        while not held or len(held[0]) < n:
            held = [h.copy() for h in held]  # the values left, without the buffers they view
            new = next(chunks, None)
            if new is None:
                raise DimensionMismatch(f"expected {m} values per stream, got fewer")
            held = [np.concatenate(pair) for pair in zip(held, new)] if held else list(new)
        sums, held = [np.sum(h[:n]) for h in held], [h[n:] for h in held]
        return np.array(sums)

    return [float(x) for x in 0.0 + _pairwise(m, run)]


def _pairwise(n: int, run) -> np.ndarray:
    """run(length) of each run of the halving of n values, in order, added up the same tree."""
    if n <= PAIRWISE_RUN:
        return run(n)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, run) + _pairwise(n - half, run)
