"""Sparse stiffness/mass assembly for the weighted variational pair.

The discrete problem is the generalized pencil A u = lambda B u with

    A[i,j] = integral <T grad(phi_i), grad(phi_j)>_g  e^(-eta) dV_g
    B[i,j] = integral phi_i phi_j e^(-eta) dV_g

over multilinear (Q1) nodal elements on the masked-in cells, 2-point Gauss
quadrature per axis, and Dirichlet conditions imposed by removing boundary
rows/columns.  Both matrices are assembled symmetrically: each unordered
index pair is computed once and mirrored, so A == A^T and B == B^T exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NonFiniteValue
from .fields import AffineScalar, ConstantScalar, ConstantTensor, FieldSample, ScalarField, TensorField, tensor_eigen_range
from .geometry import GridDomain, euclidean, gauss_rule, inverse_metric_factor, make_box_domain, volume_weight


def _reference_elements(domain: GridDomain):
    """Shape values and physical gradients at the Gauss points.

    Returns (N, dN) with N of shape (nq, nloc) and dN of shape
    (nq, nloc, n); nloc = 2^n corners in lexicographic bit order.
    """
    n = domain.dim
    qpts, _ = gauss_rule(n)
    corners = list(itertools.product((0, 1), repeat=n))
    nq, nloc = qpts.shape[0], len(corners)
    N = np.empty((nq, nloc))
    dN = np.empty((nq, nloc, n))
    h = np.array(domain.h)
    for a, corner in enumerate(corners):
        basis = np.where(np.array(corner)[None, :] == 1, qpts, 1.0 - qpts)
        N[:, a] = np.prod(basis, axis=1)
        for d in range(n):
            parts = basis.copy()
            parts[:, d] = 1.0
            sgn = 1.0 if corner[d] == 1 else -1.0
            dN[:, a, d] = sgn * np.prod(parts, axis=1) / h[d]
    return N, dN


@dataclass
class OperatorPair:
    """Assembled (A, B), the DOF bookkeeping, and the quadrature data the
    pair was built from: the quad_data triple, the field sample at those
    points and T's extreme eigenvalues epsilon <= delta there.  The
    constants and checks read the same sample."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    domain: GridDomain
    sample: FieldSample
    pts: np.ndarray
    dm: np.ndarray
    grad_factor: np.ndarray
    epsilon: float
    delta: float

    @property
    def ndof(self) -> int:
        return self.A.shape[0]


def quad_data(domain: GridDomain, drift: ScalarField):
    """Points, measure weights e^(-eta) W_g, and metric gradient factor."""
    pts, w = domain.quadrature()
    ncell, nq, n = pts.shape
    flat = pts.reshape(-1, n)
    eta = drift.value(flat).reshape(ncell, nq)
    wg = volume_weight(domain.metric, flat).reshape(ncell, nq)
    grad_factor = inverse_metric_factor(domain.metric, flat).reshape(ncell, nq)
    dm = w[None, :] * domain.cell_volume() * np.exp(-eta) * wg
    return pts, dm, grad_factor


def assemble(domain: GridDomain, field: TensorField, drift: ScalarField) -> OperatorPair:
    """Build the stiffness/mass pair over the interior DOFs."""
    n = domain.dim
    pts, dm, grad_factor = quad_data(domain, drift)
    ncell, nq, _ = pts.shape
    sample = FieldSample(field, drift, domain.metric, pts.reshape(-1, n))
    epsilon, delta = tensor_eigen_range(sample.theta)  # raises NotPositiveDefinite early
    theta = sample.theta.reshape(ncell, nq, n, n)

    N, dN = _reference_elements(domain)
    # every unordered local pair (i <= j) of every cell in one product with a
    # constant table, scattered pair-major into the upper triangle:
    # A_c[i, j] = sum_qab (dm grad_factor T)[c, q, a, b] dN[q, i, a] dN[q, j, b]
    iu, ju = np.triu_indices(N.shape[1])
    grad_pairs = np.einsum("qia,qjb->qabij", dN, dN)[..., iu, ju].reshape(nq * n * n, -1)
    a_vals = ((dm * grad_factor)[:, :, None, None] * theta).reshape(ncell, -1) @ grad_pairs
    b_vals = dm @ (N[:, iu] * N[:, ju])

    dof = domain.dof_index()[domain.cell_corner_nodes()]
    ri, rj = dof[:, iu].T, dof[:, ju].T
    keep = (ri >= 0) & (rj >= 0)
    rows = np.minimum(ri, rj)[keep]
    cols = np.maximum(ri, rj)[keep]

    nd = domain.n_interior

    def _mirror(vals):
        upper = sp.coo_matrix((vals, (rows, cols)), shape=(nd, nd)).tocsr()
        upper.sum_duplicates()
        full = upper + upper.T - sp.diags(upper.diagonal())
        return full.tocsr()

    A = _mirror(a_vals.T[keep])
    B = _mirror(b_vals.T[keep])
    return OperatorPair(A, B, domain, sample, pts, dm, grad_factor, epsilon, delta)


def separable_factors(pair: OperatorPair) -> list[OperatorPair] | None:
    """The 1-D pairs whose Kronecker sum is the pencil, or None if it is not one.

    On an unmasked box with rho = 1 (Euclidean), a constant diagonal T and a
    constant or affine eta, the weight e^(-eta) and the 2-point Gauss rule split into
    per-axis factors, so A = sum_a B_0 (x) .. (x) A_a (x) .. (x) B_{n-1} and
    B = B_0 (x) .. (x) B_{n-1}, with axis 0 slowest as in the DOF numbering.
    Axis a gets T_aa and the slope b_a; the constant of eta goes to axis 0.
    """
    domain, field, drift = pair.domain, pair.sample.field, pair.sample.drift
    n = domain.dim
    if n < 2 or domain.metric.grad_rho is not None or not domain.mask.all():
        return None
    if not isinstance(field, ConstantTensor) or not np.array_equal(field.mat, np.diag(np.diag(field.mat))):
        return None
    if isinstance(drift, ConstantScalar):
        slopes, c0 = np.zeros(n), drift.c
    elif isinstance(drift, AffineScalar):
        slopes, c0 = drift.b, drift.c0
    else:
        return None
    return [
        assemble(
            make_box_domain([domain.bounds[a]], [domain.resolution[a]], euclidean(1)),
            ConstantTensor([[field.mat[a, a]]]),
            AffineScalar([slopes[a]], c0 if a == 0 else 0.0),
        )
        for a in range(n)
    ]


def project_function(domain: GridDomain, f) -> np.ndarray:
    """Nodal interpolation: values of f at the interior nodes."""
    coords = domain.interior_coords()
    values = f.value(coords) if isinstance(f, ScalarField) else np.asarray(f(coords), dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("function not finite at some interior node")
    return values


def interpolate_at_quadrature(pair: OperatorPair, u) -> tuple[np.ndarray, np.ndarray]:
    """Q1 interpolant of a DOF vector at the quadrature points.

    Returns (values, gradients) shaped (ncell, nq) and (ncell, nq, n);
    gradients are coordinate partials.  Both come from one product of the
    corner values with the (2^n, nq (1 + n)) table of shape values and
    gradients.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != pair.ndof:
        raise DimensionMismatch(f"expected {pair.ndof} entries, got {u.shape[0]}")
    domain = pair.domain
    full = np.zeros(int(np.prod(domain.node_shape)))
    full[domain.interior_flat] = u
    corner_vals = full[domain.cell_corner_nodes()]
    N, dN = _reference_elements(domain)
    nq, nloc, n = dN.shape
    table = np.concatenate([N.T[:, :, None], dN.transpose(1, 0, 2)], axis=2).reshape(nloc, -1)
    out = (corner_vals @ table).reshape(-1, nq, 1 + n)
    return out[:, :, 0], out[:, :, 1:]

