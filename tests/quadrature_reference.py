"""Whole-array references for the quantities that the package reads at the Gauss points chunk by chunk.

``interpolate_at_quadrature`` reads a DOF vector at every Gauss point in
one product, and the integral functions form the cor32 and lemma32
integrals from whole (m,) and (m, n) arrays, as the package did before it
read the eigenvectors by chunks of cells.  They take the arguments and
return the values of ``bounds._cor32_integrals``, ``bounds._lemma32_integrals``
and ``bounds._cross_integral``, so a test can put them in their place.
"""

import numpy as np

from etagap import assembly
from etagap.errors import DimensionMismatch, UnitGradientViolation
from etagap.fields import apply_operator_L
from etagap.geometry import gradient_norm


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
    dm, grad_factor, sample = pair.dm, pair.grad_factor, pair.sample
    uj, t_guj = _mode(pair, spectrum.eigenvectors[:, j - 1])
    out = {}
    for label, test_fn in test_fns.items():
        gf = test_fn.f.grad(sample.pts)
        defect = float(np.max(np.abs(gradient_norm(pair.domain.metric, sample.pts, gf) - 1.0)))
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
    dm, grad_factor, sample = pair.dm, pair.grad_factor, pair.sample
    uj, t_guj = _mode(pair, uj_vec)
    gv, gg, lg = g.value(sample.pts), g.grad(sample.pts), apply_operator_L(sample, g)
    igg = float(np.sum(grad_factor * np.einsum("qa,qa->q", gg, sample.apply_T(gg)) * uj**2 * dm))
    cross_grad = grad_factor * np.einsum("qa,qa->q", t_guj, gg)
    ib = float(np.sum((2.0 * cross_grad + uj * lg) ** 2 * dm))
    igu = float(np.sum((gv * uj) ** 2 * dm))
    return igg, ib, igu, gv * uj


def cross_integral(pair, guj, vec):
    """int g u_j u dm from whole arrays."""
    return float(np.sum(guj * interpolate_at_quadrature(pair, vec)[0] * pair.dm))
