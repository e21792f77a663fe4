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
from .fields import ScalarField, TensorField, tensor_eigen_range
from .geometry import GridDomain, gauss_rule, inverse_metric_factor, volume_weight


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
    """Assembled (A, B) with the DOF bookkeeping needed by later stages."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    domain: GridDomain
    field: TensorField
    drift: ScalarField

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
    flat = pts.reshape(-1, n)
    tensor_eigen_range(field, flat)  # raises NotPositiveDefinite early
    theta = field.matrix(flat).reshape(ncell, nq, n, n)

    N, dN = _reference_elements(domain)
    nloc = N.shape[1]
    cA = dm * grad_factor

    corner_nodes = domain.cell_corner_nodes()
    dof = domain.dof_index()[corner_nodes]

    rows, cols, a_vals, b_vals = [], [], [], []
    # theta applied to each local gradient once per (q, j); each unordered
    # local pair is integrated once and scattered into the upper triangle
    tg = np.einsum("cqab,qjb->cqja", theta, dN)
    for i in range(nloc):
        for j in range(i, nloc):
            av = np.einsum("qa,cqa,cq->c", dN[:, i, :], tg[:, :, j, :], cA)
            bv = ((N[:, i] * N[:, j])[None, :] * dm).sum(axis=1)
            ri, rj = dof[:, i], dof[:, j]
            keep = (ri >= 0) & (rj >= 0)
            if not np.any(keep):
                continue
            lo = np.minimum(ri[keep], rj[keep])
            hi = np.maximum(ri[keep], rj[keep])
            rows.append(lo)
            cols.append(hi)
            a_vals.append(av[keep])
            b_vals.append(bv[keep])

    nd = domain.n_interior
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)

    def _mirror(vals):
        upper = sp.coo_matrix((vals, (rows, cols)), shape=(nd, nd)).tocsr()
        upper.sum_duplicates()
        full = upper + upper.T - sp.diags(upper.diagonal())
        return full.tocsr()

    A = _mirror(np.concatenate(a_vals))
    B = _mirror(np.concatenate(b_vals))
    return OperatorPair(A, B, domain, field, drift)


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
    gradients are coordinate partials.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != pair.ndof:
        raise DimensionMismatch(f"expected {pair.ndof} entries, got {u.shape[0]}")
    domain = pair.domain
    full = np.zeros(int(np.prod(domain.node_shape)))
    full[domain.interior_flat] = u
    corner_vals = full[domain.cell_corner_nodes()]
    N, dN = _reference_elements(domain)
    vals = np.einsum("qa,ca->cq", N, corner_vals)
    grads = np.einsum("qad,ca->cqd", dN, corner_vals)
    return vals, grads

