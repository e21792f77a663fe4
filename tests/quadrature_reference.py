"""Whole-array references for the quantities that the package reads at the Gauss points chunk by chunk.

``quadrature`` and ``quad_data`` form every Gauss point, measure weight
and metric factor of a domain at once, from an (ncell, n) multi-index of
its masked cells, as the package did before it formed them per chunk of
cells.  ``interpolate_at_quadrature`` reads a DOF vector at every Gauss
point in one product, and the integral functions form the cor32 and
lemma32 integrals from whole (m,) and (m, n) arrays, as the package did
before it read the eigenvectors by chunks of cells.  They take the
arguments and return the values of ``bounds._cor32_integrals``,
``bounds._lemma32_integrals`` and ``bounds._cross_integral``, so a test can
put them in their place.
"""

import numpy as np

from etagap import assembly
from etagap.errors import DimensionMismatch, NonFiniteValue, UnitGradientViolation
from etagap.fields import apply_operator_L
from etagap.geometry import gauss_rule, gradient_norm, inverse_metric_factor, volume_weight


def quadrature(domain):
    """(points, weights): the (m, n) Gauss points of every masked cell, cell by cell, and one cell's (nq,) weights."""
    masked_cells = np.argwhere(domain.mask)
    nodes, w = gauss_rule(domain.dim)
    pts = np.empty((len(masked_cells), len(w), domain.dim))
    for d, ((lo, _), h) in enumerate(zip(domain.bounds, domain.h)):
        np.add((lo + masked_cells[:, d] * h)[:, None], nodes[:, d] * h, out=pts[:, :, d])
    return pts.reshape(-1, domain.dim), w


def quad_data(domain, drift):
    """The (m, n) Gauss points, their (m,) measure weights and metric gradient factor, all at once."""
    pts, w = quadrature(domain)
    rho_one = domain.metric.grad_rho is None
    with np.errstate(over="ignore"):
        dm = (np.exp(-drift.value(pts)).reshape(-1, w.size) * (w * domain.cell_volume())).ravel()
        if not rho_one:
            dm *= volume_weight(domain.metric, pts)
    grad_factor = np.broadcast_to(1.0, dm.shape) if rho_one else inverse_metric_factor(domain.metric, pts)
    if not np.all((dm > 0.0) & np.isfinite(dm)):
        raise NonFiniteValue("measure weight e^(-eta) W_g is not finite and positive at every quadrature point")
    return pts, dm, grad_factor


def interpolate_at_quadrature(pair, u):
    """(values, gradients) of the Q1 interpolant of u at all Gauss points, (m,) and (m, n), from one product."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != pair.ndof:
        raise DimensionMismatch(f"expected {pair.ndof} entries, got {u.shape[0]}")
    domain = pair.domain
    full = np.zeros(int(np.prod(domain.node_shape)))
    full[domain.interior_flat] = u
    corner_vals = full[domain.cell_corner_nodes()]
    N, dN = assembly._reference_elements(domain.dim, domain.h)
    nloc, n = dN.shape[1:]
    table = np.concatenate([N.T[:, :, None], dN.transpose(1, 0, 2)], axis=2).reshape(nloc, -1)
    out = (corner_vals @ table).reshape(-1, 1 + n)
    return out[:, 0], out[:, 1:]


def _mode(pair, u):
    """(u, T grad u) at all Gauss points; a constant T written over grad u by chunks of points."""
    u, gu = interpolate_at_quadrature(pair, u)
    if pair.sample.field.degree != 0:
        return u, pair.sample.apply_T(gu)
    for q in assembly.even_chunks(gu.shape[0], assembly.CHUNK_ROWS):
        gu[q] = pair.sample.apply_T(gu[q])
    return u, gu


def cor32_integrals(spectrum, pair, test_fns, j):
    """(I1, I2, I3) of each test function, by label, from whole arrays."""
    pts, dm, grad_factor = quad_data(pair.domain, pair.sample.drift)
    sample = pair.sample
    uj, t_guj = _mode(pair, spectrum.eigenvectors[:, j - 1])
    out = {}
    for label, test_fn in test_fns.items():
        gf = test_fn.f.grad(pts)
        defect = float(np.max(np.abs(gradient_norm(pair.domain.metric, pts, gf) - 1.0)))
        if defect > 1e-10:
            raise UnitGradientViolation(f"{label}: |grad f|_g deviates from 1 by {defect:.3e}")
        lf, glf = test_fn.lf_and_grad(sample)
        i1 = np.einsum("qa,qa->q", t_guj, gf)
        i1 *= grad_factor
        np.square(i1, out=i1)
        i1 *= dm
        i2 = 0.0 if lf is None else float(np.sum(lf**2 * uj**2 * dm))
        i3 = 0.0
        if glf is not None:
            i3 = float(np.sum(grad_factor * np.einsum("qa,qa->q", glf, sample.apply_T(gf)) * uj**2 * dm))
        out[label] = (float(np.sum(i1)), i2, i3)
    return out


def lemma32_integrals(pair, uj_vec, g):
    """The three lemma32 integrals and g u_j at the points, from whole arrays."""
    pts, dm, grad_factor = quad_data(pair.domain, pair.sample.drift)
    sample = pair.sample
    uj, t_guj = _mode(pair, uj_vec)
    gv, gg, lg = g.value(pts), g.grad(pts), apply_operator_L(sample, g)
    igg = float(np.sum(grad_factor * np.einsum("qa,qa->q", gg, sample.apply_T(gg)) * uj**2 * dm))
    cross_grad = grad_factor * np.einsum("qa,qa->q", t_guj, gg)
    ib = float(np.sum((2.0 * cross_grad + uj * lg) ** 2 * dm))
    igu = float(np.sum((gv * uj) ** 2 * dm))
    return igg, ib, igu, gv * uj


def cross_integral(pair, guj, vec):
    """int g u_j u dm from whole arrays."""
    return float(np.sum(guj * interpolate_at_quadrature(pair, vec)[0] * quad_data(pair.domain, pair.sample.drift)[1]))
