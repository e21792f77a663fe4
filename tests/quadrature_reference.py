"""Whole-array references for the quantities that the package reads at the Gauss points chunk by chunk.

``quadrature`` and ``quad_data`` form every Gauss point, measure weight
and metric factor of a domain at once, from an (ncell, n) multi-index of
its masked cells, as the package did before it formed them per chunk of
cells.  ``interpolate_at_quadrature`` reads a DOF vector at every Gauss
point in one product, and the reader functions form the cor32 and lemma32
integrals from whole (m,) and (m, n) arrays, as the package did before it
read the eigenvectors by chunks of cells, and sum each integrand with one
``np.sum``.  They take the arguments of ``bounds.cor32_reader`` and
``bounds.lemma32_reader`` and return a reader that has been read, with
those integrals as its sums, so a test can put them in their place;
``cross_integrals`` forms the lemma32 cross terms of a block of vectors.
"""

import numpy as np

from etagap import assembly, bounds
from etagap.errors import DimensionMismatch, NonFiniteValue, UnitGradientViolation
from etagap.fields import FieldSample, apply_operator_L
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


def _sample(pair):
    """The FieldSample at every Gauss point, their (m,) measure weights and metric gradient factor."""
    pts, dm, grad_factor = quad_data(pair.domain, pair.drift)
    return FieldSample(pair.field, pair.drift, pair.domain.metric, pts), dm, grad_factor


def _mode(sample, pair, u):
    """(u, grad u, T grad u) at all Gauss points; a constant T applied by chunks of points."""
    u, gu = interpolate_at_quadrature(pair, u)
    if pair.field.degree != 0:
        return u, gu, sample.apply_T(gu)
    t_gu = np.empty_like(gu)
    for q in assembly.even_chunks(gu.shape[0], assembly.CHUNK_ROWS):
        t_gu[q] = sample.apply_T(gu[q])
    return u, gu, t_gu


def _given(sums):
    """A reader that has been read, with these sums."""
    return assembly.Reader((), None, sums)


def cor32_reader(spectrum, pair, test_fns, j=1):
    """The sums of ``bounds.cor32_reader``, from whole arrays."""
    sample, dm, grad_factor = _sample(pair)
    pts = sample.pts
    uj, guj, t_guj = _mode(sample, pair, spectrum.eigenvectors[:, j - 1])
    out = {"R": float(np.sum(grad_factor * np.einsum("qa,qa->q", t_guj, guj) * dm))}
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
        out[label, 0] = float(np.sum(i1))
        if lf is not None:
            out[label, 1] = float(np.sum(lf**2 * uj**2 * dm))
        if glf is not None:
            out[label, 2] = float(np.sum(grad_factor * np.einsum("qa,qa->q", glf, sample.apply_T(gf)) * uj**2 * dm))
    return _given(out)


def lemma32_reader(spectrum, pair, g, j=1):
    """The sums of ``bounds.lemma32_reader``, from whole arrays."""
    read = sorted(set().union(*bounds._lemma32_rows(spectrum.eigenvalues, j)[1].values()))
    sample, dm, grad_factor = _sample(pair)
    pts = sample.pts
    uj, _, t_guj = _mode(sample, pair, spectrum.eigenvectors[:, j - 1])
    gv, gg, lg = g.value(pts), g.grad(pts), apply_operator_L(sample, g)
    igg = float(np.sum(grad_factor * np.einsum("qa,qa->q", gg, sample.apply_T(gg)) * uj**2 * dm))
    cross_grad = grad_factor * np.einsum("qa,qa->q", t_guj, gg)
    ib = float(np.sum((2.0 * cross_grad + uj * lg) ** 2 * dm))
    igu = float(np.sum((gv * uj) ** 2 * dm))
    cross = cross_integrals(pair, gv * uj, [spectrum.eigenvectors[:, i] for i in read])
    return _given({"igg": igg, "ib": ib, "igu": igu, **dict(zip(read, cross))})


def cross_integrals(pair, guj, vectors):
    """int g u_j u dm for each DOF vector u of a block, from g u_j at every point and whole arrays."""
    dm = quad_data(pair.domain, pair.drift)[1]
    return [float(np.sum(guj * interpolate_at_quadrature(pair, u)[0] * dm)) for u in vectors]
