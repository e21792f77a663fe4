"""Coefficient fields, derivative machinery, and constant extraction."""

import numpy as np
import pytest
import quadrature_reference

from etagap.errors import NotPositiveDefinite, OutOfDomain
from etagap.fields import (
    AffineScalar,
    ConstantScalar,
    ConstantTensor,
    DiagonalTensor,
    FieldSample,
    GaussianScalar,
    LogAxisScalar,
    QuadraticScalar,
    ScalarField,
    TensorField,
    apply_operator_L,
    axis_test_function,
    compute_C0,
    compute_T0,
    compute_eta_radial_constants,
    identity_tensor,
    tensor_bounds,
    tensor_eigen_range,
    tensor_preset,
    trace_nabla_T,
    validate_radially_constant,
    _sum,
)
from etagap.geometry import (
    GridDomain,
    domain_origin_distance,
    euclidean,
    hyperbolic_half_plane,
    make_box_domain,
    radial_unit_vector,
)


def sample_at(field, drift, metric, where) -> FieldSample:
    """A FieldSample at a domain's quadrature points, formed from its grid, or at an (m, n) point array."""
    return FieldSample(field, drift, metric, where if isinstance(where, GridDomain) else np.asarray(where, float))


def zero(dim: int) -> ConstantScalar:
    return ConstantScalar(dim)


# ---------------------------------------------------------------------------
# array-path references: every field and derivative as a full array, zeros
# included, the second partials of T too; the divergence is contracted first,
# as the field sample does
# ---------------------------------------------------------------------------


def _christoffel(pts: np.ndarray, n: int) -> np.ndarray:
    """Half-space symbols Gamma^k_ij = -(dki djn + dkj din - dij dkn)/x_n, per point."""
    eye = np.eye(n)
    base = -(
        np.einsum("ki,j->kij", eye, eye[-1])
        + np.einsum("kj,i->kij", eye, eye[-1])
        - np.einsum("ij,k->kij", eye, eye[-1])
    )
    return base[None, :, :, :] / pts[:, -1][:, None, None, None]


def _array(evaluate, pts, shape):
    """evaluate(pts), or zeros of the given trailing shape for a field without that derivative."""
    try:
        return evaluate(pts)
    except NotImplementedError:
        return np.zeros((pts.shape[0],) + shape)


def dense_d2T(field, pts) -> np.ndarray:
    """Every second partial d_k d_l T_ij as an (m, n, n, n, n) array [q, k, l, i, j], zeros included."""
    n = pts.shape[1]
    out = np.zeros((pts.shape[0],) + (n,) * 4)
    if isinstance(field, DiagonalTensor):
        for i, c in enumerate(field.coefs):
            out[:, c.axis, c.axis, i, i] = c.d2(pts)
    elif isinstance(field, CoupledQuadraticTensor):
        out[:] = 2.0 * np.einsum("kl,ij->klij", np.eye(n), field.M2)
    elif field.degree != 0:
        raise TypeError(f"no dense second partials for {type(field).__name__}")
    return out


def _field_arrays(field, drift, pts):
    n = pts.shape[1]
    return (
        field.matrix(pts),
        _array(field.d_matrix, pts, (n,) * 3),
        dense_d2T(field, pts),
        _array(drift.grad, pts, (n,)),
        _array(drift.hess, pts, (n, n)),
    )


def _christoffel_part(mats):
    n = mats.shape[-1]
    out = -n * mats[..., :, -1]
    out[..., -1] += np.trace(mats, axis1=-2, axis2=-1)
    return out


def ref_compute_T0(field, metric, domain) -> float:
    pts = domain.quadrature()[0]
    theta, dT, _, _, _ = _field_arrays(field, zero(metric.dim), pts)
    vec = np.einsum("qjij->qi", dT)
    if metric.is_hyperbolic:
        vec = pts[:, -1][:, None] * vec + _christoffel_part(theta)
    return float(np.max(np.linalg.norm(vec, axis=1)))


def ref_compute_C0(field, drift, metric, domain) -> float:
    pts = domain.quadrature()[0]
    theta, dT, d2T, ge, he = _field_arrays(field, drift, pts)
    div = np.einsum("qjij->qi", dT)
    dV = -np.einsum("qkmim->qki", d2T)  # d_k sum_m d_m T_im
    dV += he @ theta
    dV += np.einsum("qijm,qm->qij", dT, ge)
    tge = np.einsum("qij,qj->qi", theta, ge)
    v = tge - div
    if metric.is_hyperbolic:
        xn = pts[:, -1]
        dV = xn[:, None, None] * dV - _christoffel_part(dT)
        dV[:, -1, :] += v
        v = xn[:, None] * v - _christoffel_part(theta)
        tge = xn[:, None] * tge
    div_w = np.einsum("qj,qj->q", div, v) + np.einsum("qij,qij->q", theta, dV)
    if metric.is_hyperbolic:
        div_w = xn * div_w + (1 - metric.dim) * np.einsum("qj,qj->q", theta[:, -1, :], v)
    return float(np.max(0.5 * div_w - 0.25 * np.sum(tge * tge, axis=1)))


def ref_compute_eta_radial_constants(drift, metric, domain, origin) -> tuple:
    domain_origin_distance(domain, origin)  # validates the origin
    pts = domain.quadrature()[0]
    v = radial_unit_vector(metric, origin, pts)
    n = metric.dim
    ge = _array(drift.grad, pts, (n,))
    he = _array(drift.hess, pts, (n, n))
    if metric.is_hyperbolic:
        he = he - np.einsum("qkij,qk->qij", _christoffel(pts, n), ge)
    eta1 = float(np.max(np.abs(np.einsum("qij,qi,qj->q", he, v, v))))
    eta_r = float(np.max(np.abs(np.sum(ge * v, axis=1))))
    return eta1, eta_r


def ref_trace_nabla_T(s: FieldSample):
    """trace_nabla_T written per metric model, x_n in the half-space."""
    flat = None if s.dT is None else np.einsum("qjij->qi", s.dT)
    if not s.metric.is_hyperbolic:
        return flat
    part = _christoffel_part(s.theta)
    return part if flat is None else s.points()[:, -1][:, None] * flat + part


def ref_apply_operator_L(s: FieldSample, f: ScalarField) -> np.ndarray:
    """apply_operator_L written per metric model, x_n in the half-space.

    div_0(T df) - <d eta, T df> is T : Hess_0 f - <v, df> with v = T d eta - div T.
    """
    pts, theta, dT, ge = s.points(), s.theta, s.dT, s.ge
    gf = f.grad(pts)
    hf = None if f.degree is not None and f.degree < 2 else f.hess(pts)
    tge = None if ge is None else np.einsum("qij,qj->qi", theta, ge)
    v = _sum(tge, None if dT is None else -np.einsum("qjij->qi", dT))
    out = _sum(
        None if hf is None else np.einsum("qij,qij->q", theta, hf),
        None if v is None else -np.einsum("qi,qi->q", v, gf),
    )
    if s.metric.is_hyperbolic:
        xn = pts[:, -1]
        tgf_n = np.einsum("qj,qj->q", theta[:, -1, :], gf)
        out = _sum(None if out is None else xn**2 * out, -((s.metric.dim - 2) * xn * tgf_n))
    return np.zeros(pts.shape[0]) if out is None else out

# ---------------------------------------------------------------------------
# central-difference references for the analytic derivatives
# ---------------------------------------------------------------------------


class FiniteDifferenceScalar(ScalarField):
    """Central-difference derivatives for a bare value callable."""

    def __init__(self, dim: int, func, h_fd: float = 1e-5):
        self.dim = dim
        self.func = func
        self.h = float(h_fd)

    def value(self, pts):
        return np.asarray(self.func(pts), dtype=float)

    def grad(self, pts):
        m, n = pts.shape
        g = np.empty((m, n))
        for d in range(n):
            e = np.zeros(n)
            e[d] = self.h
            g[:, d] = (self.func(pts + e) - self.func(pts - e)) / (2.0 * self.h)
        return g

    def hess(self, pts):
        m, n = pts.shape
        out = np.empty((m, n, n))
        f0 = np.asarray(self.func(pts), dtype=float)
        for a in range(n):
            ea = np.zeros(n)
            ea[a] = self.h
            out[:, a, a] = (self.func(pts + ea) - 2.0 * f0 + self.func(pts - ea)) / self.h**2
            for b in range(a + 1, n):
                eb = np.zeros(n)
                eb[b] = self.h
                mixed = (
                    self.func(pts + ea + eb)
                    - self.func(pts + ea - eb)
                    - self.func(pts - ea + eb)
                    + self.func(pts - ea - eb)
                ) / (4.0 * self.h**2)
                out[:, a, b] = mixed
                out[:, b, a] = mixed
        return out


class FiniteDifferenceTensor(TensorField):
    """Central-difference derivatives for a bare matrix callable."""

    def __init__(self, dim: int, func, h_fd: float = 1e-5):
        self.dim = dim
        self.func = func
        self.h = float(h_fd)

    def matrix(self, pts):
        return np.asarray(self.func(pts), dtype=float)

    def d_matrix(self, pts):
        m, n = pts.shape
        out = np.empty((m, n, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = self.h
            out[:, k] = (self.matrix(pts + e) - self.matrix(pts - e)) / (2.0 * self.h)
        return out

    def grad_div(self, pts):
        return central_grad_div(self, pts, self.h)


def central_grad_div(field: TensorField, pts: np.ndarray, h: float) -> np.ndarray:
    """d_k sum_j d_j T_ij by central differences of einsum("qjij->qi", field.d_matrix)."""
    m, n = pts.shape

    def div(p):
        return np.einsum("qjij->qi", field.d_matrix(p))

    out = np.empty((m, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        out[:, k] = (div(pts + e) - div(pts - e)) / (2.0 * h)
    return out


def fd_consistency_defect(drift: ScalarField, pts: np.ndarray, h: float = 1e-4) -> float:
    """Worst defect between analytic and central-difference drift derivatives."""
    fd = FiniteDifferenceScalar(drift.dim, drift.value, h)
    dg = np.max(np.abs(drift.grad(pts) - fd.grad(pts)))
    dh = np.max(np.abs(drift.hess(pts) - fd.hess(pts)))
    return float(max(dg, dh))


def fd_hyperbolic_C0(field: TensorField, drift: ScalarField, metric, domain) -> float:
    """Half-space c0 with the outer divergence taken by central differences.

    The inner field W = T(T(grad eta) - tr(nabla T)) is evaluated
    analytically in orthonormal components w; its coordinate components
    are x_n w, so div W = sum_i d_i(x_n w_i) - n w_n.  The step is 1e-5
    times the box diagonal, at most a quarter of the smallest x_n.
    """
    pts = domain.quadrature()[0]

    def w_orth(p):
        th = field.matrix(p)
        v = np.einsum("qij,qj->qi", th, p[:, -1][:, None] * drift.grad(p)) - trace_nabla_T(sample_at(field, drift, metric, p))
        return np.einsum("qij,qj->qi", th, v)

    h = 1e-5 * float(np.linalg.norm([hi - lo for lo, hi in domain.bounds]))
    h = min(h, 0.25 * float(np.min(pts[:, -1])))
    n = metric.dim
    div_w = -n * w_orth(pts)[:, -1]
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        wp, wm = w_orth(pts + e), w_orth(pts - e)
        div_w += ((pts[:, -1] + e[-1]) * wp[:, i] - (pts[:, -1] - e[-1]) * wm[:, i]) / (2.0 * h)
    tge = np.einsum("qij,qj->qi", field.matrix(pts), pts[:, -1][:, None] * drift.grad(pts))
    return float(np.max(0.5 * div_w - 0.25 * np.sum(tge * tge, axis=1)))


class CoupledQuadraticTensor(TensorField):
    """3-D T(x) = M0 + (a.x) M1 + |x|^2 M2 with full symmetric M1, M2, analytic partials."""

    dim = 3
    M0 = np.diag([3.0, 2.5, 2.0])
    M1 = np.array([[0.2, 0.1, 0.05], [0.1, -0.1, 0.15], [0.05, 0.15, 0.3]])
    M2 = np.array([[0.1, 0.02, -0.03], [0.02, 0.05, 0.04], [-0.03, 0.04, 0.2]])
    a = np.array([0.5, -0.3, 0.7])

    def matrix(self, pts):
        s1 = pts @ self.a
        s2 = np.sum(pts * pts, axis=1)
        return self.M0 + s1[:, None, None] * self.M1 + s2[:, None, None] * self.M2

    def d_matrix(self, pts):
        return self.a[None, :, None, None] * self.M1 + 2.0 * pts[:, :, None, None] * self.M2

    def grad_div(self, pts):
        # sum_j d_j T_ij = (M1 a)_i + 2 (M2 x)_i
        return np.broadcast_to(2.0 * self.M2.T, (pts.shape[0], 3, 3))


EUC2 = euclidean(2)
HYP2 = hyperbolic_half_plane(2)


@pytest.fixture(scope="module")
def square_domain():
    return make_box_domain([(0, np.pi), (0, np.pi)], [40, 40], EUC2)


def diag_affine_tensor():
    # diag(2 + x1, 3)
    return tensor_preset(
        "diag_profile",
        2,
        entries=[
            {"profile": "linear", "c0": 2.0, "c1": 1.0, "axis": 0},
            {"profile": "const", "c0": 3.0},
        ],
    )


def test_affine_grad_is_a_read_only_view():
    pts = np.random.default_rng(5).standard_normal((6, 2))
    grad = AffineScalar([1, 0]).grad(pts)
    assert grad.shape == (6, 2) and np.array_equal(grad, np.tile([1.0, 0.0], (6, 1)))
    with pytest.raises(ValueError):
        grad[0, 0] = 2.0


class TestTensorBounds:
    def test_identity(self, square_domain):
        assert tensor_bounds(identity_tensor(2), square_domain) == (1.0, 1.0)

    def test_constant_diag_and_sigma(self, square_domain):
        eps, dlt = tensor_bounds(ConstantTensor(np.diag([2.0, 3.0])), square_domain)
        assert (eps, dlt) == (2.0, 3.0)
        assert 2 * dlt - eps == 4.0

    def test_variable_entry_extrema(self, square_domain):
        # oracle: extrema of the diagonal entries over the same sample grid
        field = tensor_preset(
            "diag_profile",
            2,
            entries=[
                {"profile": "sin2", "c0": 2.0, "c1": 1.0, "axis": 0},
                {"profile": "const", "c0": 3.0},
            ],
        )
        pts = square_domain.quadrature()[0]
        entry = 2.0 + np.sin(pts[:, 0]) ** 2
        eps, dlt = tensor_bounds(field, square_domain)
        assert eps == pytest.approx(float(np.min(entry)), abs=1e-14)
        assert dlt == pytest.approx(max(float(np.max(entry)), 3.0), abs=1e-14)
        assert eps == pytest.approx(2.0, abs=1e-2)
        assert dlt == 3.0

    def test_not_positive_definite(self, square_domain):
        with pytest.raises(NotPositiveDefinite):
            tensor_bounds(ConstantTensor(np.diag([1.0, -0.5])), square_domain)

    @pytest.mark.parametrize("off", [0.0, 1e-3, np.nan])
    def test_diagonal_stack_matches_eigvalsh(self, off):
        # an exactly diagonal stack is read off its diagonal, bit-identical to eigvalsh
        mats = np.zeros((40, 3, 3))
        mats[:, [0, 1, 2], [0, 1, 2]] = np.random.default_rng(8).uniform(0.5, 4.0, (40, 3))
        mats[7, 0, 2] = mats[7, 2, 0] = off
        if np.isnan(off):
            with pytest.raises(NotPositiveDefinite):
                tensor_eigen_range(mats)
            return
        eigs = np.linalg.eigvalsh(mats)
        assert tensor_eigen_range(mats) == (float(np.min(eigs[:, 0])), float(np.max(eigs[:, -1])))
        mats[3, 1, 1] = -0.5
        with pytest.raises(NotPositiveDefinite):
            tensor_eigen_range(mats)

    @pytest.mark.parametrize(
        "mat", [[[2.0, 0.5], [0.5, 3.0]], [[1.0, 0.0], [0.0, -0.5]], [[2.0, 0.5], [0.4, 3.0]]]
    )
    def test_broadcast_stack_matches_copy(self, mat):
        # a broadcast of one matrix is decided by that matrix alone
        view = np.broadcast_to(np.array(mat), (50, 2, 2))
        try:
            expected = tensor_eigen_range(view.copy())
        except NotPositiveDefinite:
            with pytest.raises(NotPositiveDefinite):
                tensor_eigen_range(view)
        else:
            assert tensor_eigen_range(view) == expected

    def test_rayleigh_quotient_bracketing(self, square_domain):
        rng = np.random.default_rng(17)
        field = diag_affine_tensor()
        eps, dlt = tensor_bounds(field, square_domain)
        pts = square_domain.quadrature()[0]
        idx = rng.integers(0, pts.shape[0], size=1000)
        theta = field.matrix(pts[idx])
        v = rng.standard_normal((1000, 2))
        v /= np.linalg.norm(v, axis=1)[:, None]
        quot = np.einsum("qij,qi,qj->q", theta, v, v)
        assert np.all(quot >= eps - 1e-12)
        assert np.all(quot <= dlt + 1e-12)

    def test_t_property_chain(self, square_domain):
        # eps <T(Y), Y> <= |T(Y)|^2 <= delta <T(Y), Y> for random Y
        rng = np.random.default_rng(23)
        field = diag_affine_tensor()
        eps, dlt = tensor_bounds(field, square_domain)
        pts = square_domain.quadrature()[0]
        idx = rng.integers(0, pts.shape[0], size=500)
        theta = field.matrix(pts[idx])
        y = rng.standard_normal((500, 2))
        ty = np.einsum("qij,qj->qi", theta, y)
        tyy = np.einsum("qi,qi->q", ty, y)
        ty2 = np.einsum("qi,qi->q", ty, ty)
        assert np.all(eps * tyy <= ty2 + 1e-10)
        assert np.all(ty2 <= dlt * tyy + 1e-10)


class TestTraceNablaT:
    def test_constant_euclidean_zero(self):
        pts = np.array([[0.2, 0.4], [1.0, 2.0]])
        # a structural zero: no array is built
        assert trace_nabla_T(sample_at(ConstantTensor(np.diag([2.0, 3.0])), zero(2), EUC2, pts)) is None

    def test_diag_affine(self):
        out = trace_nabla_T(sample_at(diag_affine_tensor(), zero(2), EUC2, [[0.5, 1.5]]))
        assert out[0] == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_hyperbolic_identity_parallel(self):
        pts = np.array([[0.3, 0.7], [0.1, 2.4]])
        out = trace_nabla_T(sample_at(identity_tensor(2), zero(2), HYP2, pts))
        assert np.max(np.abs(out)) < 1e-14

    @pytest.mark.parametrize("kind", ["sin_x1", "sin_x2", "coupled_3d"])
    def test_closed_form_matches_christoffel_contraction(self, kind):
        # reference: the per-point contraction with the half-space symbols
        if kind == "coupled_3d":
            metric = hyperbolic_half_plane(3)
            dom = make_box_domain([(0, 1), (0, 1), (1, 2)], [6, 6, 6], metric)
            field = CoupledQuadraticTensor()
        else:
            metric = HYP2
            dom = make_box_domain([(0, 1), (1, 2)], [16, 16], metric)
            axis = 0 if kind == "sin_x1" else 1
            field = tensor_preset(
                "diag_profile",
                2,
                entries=[
                    {"profile": "sin", "c0": 3.0, "c1": 0.6, "axis": axis},
                    {"profile": "sin", "c0": 2.5, "c1": 0.9, "axis": axis},
                ],
            )
        pts = dom.quadrature()[0]
        theta = field.matrix(pts)
        gamma = _christoffel(pts, metric.dim)
        corr1 = np.einsum("qajm,qmj->qa", gamma, theta)
        corr2 = np.einsum("qim,qm->qi", theta, np.einsum("qmjj->qm", gamma))
        ref = pts[:, -1][:, None] * (np.einsum("qjij->qi", field.d_matrix(pts)) + corr1 - corr2)
        got = trace_nabla_T(sample_at(field, zero(metric.dim), metric, pts))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_against_fd_christoffel_oracle(self):
        # independent oracle: Christoffels from finite differences of the
        # metric g_ij = delta_ij / x_n^2, assembled into the same trace
        def metric_matrix(p):
            return np.eye(2) / p[-1] ** 2

        def fd_christoffel(p, h=1e-6):
            dg = np.zeros((2, 2, 2))
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                dg[k] = (metric_matrix(p + e) - metric_matrix(p - e)) / (2 * h)
            ginv = np.linalg.inv(metric_matrix(p))
            gamma = np.zeros((2, 2, 2))
            for k in range(2):
                for i in range(2):
                    for j in range(2):
                        gamma[k, i, j] = 0.5 * sum(
                            ginv[k, m] * (dg[i][m, j] + dg[j][i, m] - dg[m][i, j])
                            for m in range(2)
                        )
            return gamma

        field = tensor_preset(
            "diag_profile",
            2,
            entries=[
                {"profile": "sin", "c0": 3.0, "c1": 1.0, "axis": 0},
                {"profile": "sin", "c0": 3.0, "c1": 1.0, "axis": 0},
            ],
        )
        p = np.array([0.4, 1.3])
        gamma = fd_christoffel(p)
        theta = field.matrix(p[None])[0]
        dT = field.d_matrix(p[None])[0]
        expected = np.zeros(2)
        for i in range(2):
            acc = 0.0
            for j in range(2):
                acc += dT[j, i, j]
                for m in range(2):
                    acc += gamma[i, j, m] * theta[m, j] - gamma[m, j, j] * theta[i, m]
            expected[i] = p[-1] * acc
        got = trace_nabla_T(sample_at(field, zero(2), HYP2, p[None]))[0]
        assert got == pytest.approx(expected, abs=1e-8)


class TestComputeT0:
    def test_constant_exact_zero(self, square_domain):
        assert compute_T0(sample_at(ConstantTensor(np.diag([2.0, 3.0])), zero(2), EUC2, square_domain)) == 0.0

    def test_diag_affine_is_one(self, square_domain):
        assert compute_T0(sample_at(diag_affine_tensor(), zero(2), EUC2, square_domain)) == pytest.approx(1.0, abs=1e-14)

    def test_sin_profile_sup_cos(self, square_domain):
        field = tensor_preset(
            "diag_profile",
            2,
            entries=[
                {"profile": "sin", "c0": 2.0, "c1": 1.0, "axis": 0},
                {"profile": "const", "c0": 3.0},
            ],
        )
        # oracle: sup |cos x1| over the same sample grid
        pts = square_domain.quadrature()[0]
        expected = float(np.max(np.abs(np.cos(pts[:, 0]))))
        t0 = compute_T0(sample_at(field, zero(2), EUC2, square_domain))
        assert t0 == pytest.approx(expected, abs=1e-14)
        assert t0 == pytest.approx(1.0, abs=1e-3)


class TestComputeC0:
    def test_constant_everything_exact_zero(self, square_domain):
        val = compute_C0(sample_at(ConstantTensor(np.diag([2.0, 3.0])), ConstantScalar(2, 5.0), EUC2, square_domain))
        assert val == 0.0

    def test_affine_drift_quarter(self, square_domain):
        val = compute_C0(sample_at(identity_tensor(2), AffineScalar([1.0, 0.0]), EUC2, square_domain))
        assert val == pytest.approx(-0.25, abs=1e-14)

    def test_quadratic_drift_sup(self, square_domain):
        # pointwise oracle: 1/2 div(grad eta) - 1/4 |grad eta|^2 = n/2 - |x|^2/4
        eta = QuadraticScalar(np.eye(2))
        pts = square_domain.quadrature()[0]
        oracle = float(np.max(1.0 - 0.25 * np.sum(pts * pts, axis=1)))
        val = compute_C0(sample_at(identity_tensor(2), eta, EUC2, square_domain))
        assert val == pytest.approx(oracle, abs=1e-12)
        assert 0.99 < val < 1.0

    def test_hyperbolic_identity_zero_drift(self):
        dom = make_box_domain([(0, 1), (1, 2)], [12, 12], HYP2)
        val = compute_C0(sample_at(identity_tensor(2), ConstantScalar(2), HYP2, dom))
        assert val == 0.0

    def test_hyperbolic_radial_drift_against_closed_form(self):
        # T = id, eta = eta(x1): C0 = 1/2 Delta_g eta - 1/4 |grad eta|_g^2
        #                           = x2^2 (eta''/2 - eta'^2/4) for n = 2
        dom = make_box_domain([(0, 1), (1, 2)], [16, 16], HYP2)
        eta = QuadraticScalar(np.diag([1.0, 0.0]))
        pts = dom.quadrature()[0]
        oracle = float(np.max(pts[:, 1] ** 2 * (0.5 - 0.25 * pts[:, 0] ** 2)))
        val = compute_C0(sample_at(identity_tensor(2), eta, HYP2, dom))
        assert val == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "case",
        [
            ("sin_x1", AffineScalar([0.8, 0.0])),
            ("sin_x1", GaussianScalar(2, 0.7, [0.4, 1.6], 0.5)),
            ("sin_x1", QuadraticScalar([[1.0, 0.3], [0.3, 0.5]], [0.2, -0.4])),
            ("sin_x2", GaussianScalar(2, 0.7, [0.4, 1.6], 0.5)),
            ("coupled_3d", GaussianScalar(3, 0.7, [0.4, 0.5, 1.6], 0.5)),
            ("coupled_3d", QuadraticScalar([[1.0, 0.3, 0.0], [0.3, 0.5, 0.2], [0.0, 0.2, 0.8]], [0.2, 0.1, -0.4])),
        ],
        ids=["affine_x1", "gaussian", "quadratic", "vertical_tensor", "gaussian_3d", "quadratic_3d"],
    )
    def test_hyperbolic_against_central_differences(self, case):
        kind, drift = case
        if kind == "coupled_3d":
            metric = hyperbolic_half_plane(3)
            dom = make_box_domain([(0, 1), (0, 1), (1, 2)], [6, 6, 6], metric)
            field = CoupledQuadraticTensor()
        else:
            metric = HYP2
            dom = make_box_domain([(0, 1), (1, 2)], [16, 16], metric)
            axis = 0 if kind == "sin_x1" else 1
            field = tensor_preset(
                "diag_profile",
                2,
                entries=[
                    {"profile": "sin", "c0": 3.0, "c1": 0.6, "axis": axis},
                    {"profile": "sin", "c0": 2.5, "c1": 0.9, "axis": axis},
                ],
            )
        val = compute_C0(sample_at(field, drift, metric, dom))
        ref = fd_hyperbolic_C0(field, drift, metric, dom)
        assert abs(val - ref) <= 1e-8 * max(1.0, abs(ref))


class TestEtaRadialConstants:
    def test_constant_drift(self):
        dom = make_box_domain([(0, 1), (0, 1)], [20, 20], EUC2)
        out = compute_eta_radial_constants(sample_at(identity_tensor(2), ConstantScalar(2, 3.0), EUC2, dom), np.array((-1.0, 0.0)))
        assert out == (0.0, 0.0)

    def test_affine_drift_radial_slope(self):
        dom = make_box_domain([(0, 1), (0, 1)], [60, 60], EUC2)
        o = np.array((-1.0, 0.0))
        eta1, eta_r = compute_eta_radial_constants(sample_at(identity_tensor(2), AffineScalar([1.0, 0.0]), EUC2, dom), o)
        # oracle: max of (x1 + 1)/|x - o| over the sample grid
        pts = dom.quadrature()[0]
        diff = pts - np.array([-1.0, 0.0])
        oracle = float(np.max(np.abs(diff[:, 0]) / np.linalg.norm(diff, axis=1)))
        assert eta1 == 0.0
        assert eta_r == pytest.approx(oracle, abs=1e-14)
        assert eta_r == pytest.approx(1.0, abs=2e-2)

    def test_quadratic_drift_unit_hessian(self):
        dom = make_box_domain([(0, 1), (0, 1)], [30, 30], EUC2)
        o = np.array((-0.5, -0.5))
        eta1, _ = compute_eta_radial_constants(sample_at(identity_tensor(2), QuadraticScalar(np.eye(2)), EUC2, dom), o)
        assert eta1 == pytest.approx(1.0, abs=1e-12)

    def test_hyperbolic_log_hessian_identity(self):
        # Hess(ln x2) = -(g - d ln x2 (x) d ln x2), so along any unit v:
        # Hess(ln x2)(v, v) = -(1 - <grad ln x2, v>_g^2)
        dom = make_box_domain([(0, 1), (1, 2)], [24, 24], HYP2)
        o = np.array((0.3, 4.0))
        eta = LogAxisScalar(2)
        eta1, eta_r = compute_eta_radial_constants(sample_at(identity_tensor(2), eta, HYP2, dom), o)
        pts = dom.quadrature()[0]
        v = radial_unit_vector(HYP2, o, pts)
        slope = np.sum(eta.grad(pts) * v, axis=1)
        oracle_eta1 = float(np.max(np.abs(1.0 - slope**2)))
        oracle_eta_r = float(np.max(np.abs(slope)))
        assert eta1 == pytest.approx(oracle_eta1, abs=1e-12)
        assert eta_r == pytest.approx(oracle_eta_r, abs=1e-14)


class TestApplyOperator:
    def test_harmonic_coordinate(self):
        pts = np.array([[0.2, 0.9], [1.5, 2.0]])
        out = apply_operator_L(sample_at(identity_tensor(2), ConstantScalar(2), EUC2, pts), AffineScalar([1.0, 0.0]))
        assert np.all(out == 0.0)

    def test_coordinate_squared(self):
        f = QuadraticScalar(np.diag([2.0, 0.0]))  # x1^2
        out = apply_operator_L(sample_at(identity_tensor(2), ConstantScalar(2), EUC2, [[0.3, 0.4]]), f)
        assert out[0] == pytest.approx(2.0)

    def test_half_plane_log(self):
        out = apply_operator_L(sample_at(identity_tensor(2), ConstantScalar(2), HYP2, [[0.7, 1.3]]), LogAxisScalar(2))
        assert out[0] == pytest.approx(-1.0, abs=1e-14)

    def test_half_plane_log_scaled_tensor(self):
        # T = psi * id gives L(ln x_n) = -(n-1) psi
        out = apply_operator_L(sample_at(identity_tensor(2, 2.5), ConstantScalar(2), HYP2, [[0.7, 1.3]]), LogAxisScalar(2))
        assert out[0] == pytest.approx(-2.5, abs=1e-14)

    def test_drift_term_euclidean(self):
        # L x1 = -d1 eta for T = id: eta = x1^2/2 -> -x1
        eta = QuadraticScalar(np.diag([1.0, 0.0]))
        out = apply_operator_L(sample_at(identity_tensor(2), eta, EUC2, [[0.4, 0.1]]), AffineScalar([1.0, 0.0]))
        assert out[0] == pytest.approx(-0.4)


def diag_profile_tensor(n: int) -> TensorField:
    """diag(3 + 0.6 sin x1, ..., 2.5 + 0.4 cos x_n): the last entry varies along x_n."""
    entries = [{"profile": "sin", "c0": 3.0, "c1": 0.6, "axis": 0}] * (n - 1)
    return tensor_preset("diag_profile", n, entries=entries + [{"profile": "cos", "c0": 2.5, "c1": 0.4, "axis": n - 1}])


# (model, n, axis, tensor, drift) for the axis test function: every tensor
# of each dimension (the coupled one is 3-D) against three drifts
AXIS_CASES = [
    pytest.param(model, n, axis, tensor, drift, id=f"{model}{n}d-axis{axis}-{tensor}-{drift}")
    for model, n, axis in (("euclidean", 2, 0), ("euclidean", 2, 1), ("euclidean", 3, 2), ("hyperbolic", 2, 1), ("hyperbolic", 3, 2))
    for tensor in ("diag_profile", "coupled")
    if tensor != "coupled" or n == 3
    for drift in ("affine", "gaussian", "quadratic")
]


def axis_case(model, n, axis, tensor, drift):
    """(test function, field sample builder, points) for one AXIS_CASES entry."""
    metric = (hyperbolic_half_plane if model == "hyperbolic" else euclidean)(n)
    field = CoupledQuadraticTensor() if tensor == "coupled" else diag_profile_tensor(n)
    eta = sample_drift(drift, n)
    pts = sample_domain(metric).quadrature()[0][::7]
    return axis_test_function(metric, axis), lambda p: sample_at(field, eta, metric, p), pts


class TestTestFunctions:
    @pytest.mark.parametrize("model, n, axis, tensor, drift", AXIS_CASES)
    def test_lf_matches_apply(self, model, n, axis, tensor, drift):
        tf, sample, pts = axis_case(model, n, axis, tensor, drift)
        direct = apply_operator_L(sample(pts), tf.f)
        assert tf.lf_and_grad(sample(pts))[0] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("model, n, axis, tensor, drift", AXIS_CASES)
    def test_grad_lf_matches_fd(self, model, n, axis, tensor, drift):
        tf, sample, pts = axis_case(model, n, axis, tensor, drift)
        h = 1e-6
        fd = np.empty((pts.shape[0], n))
        for d in range(n):
            e = np.zeros(n)
            e[d] = h
            fd[:, d] = (tf.lf_and_grad(sample(pts + e))[0] - tf.lf_and_grad(sample(pts - e))[0]) / (2 * h)
        assert tf.lf_and_grad(sample(pts))[1] == pytest.approx(fd, abs=1e-7)

    def test_needs_rho_constant_off_the_axis(self):
        # rho = x_2 varies along axis 1 only, so f = x_1 has no unit-gradient counterpart
        with pytest.raises(ValueError):
            axis_test_function(HYP2, 0)


class TestDerivativeConsistency:
    def test_analytic_vs_fd_scalar(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.3, 2.0, size=(30, 2))
        for f in (
            AffineScalar([0.5, -1.2], 0.3),
            QuadraticScalar([[1.0, 0.2], [0.2, 0.7]], [0.1, 0.4]),
            GaussianScalar(2, 1.3, [0.9, 1.1], 0.7),
        ):
            assert fd_consistency_defect(f, pts, h=1e-4) < 1e-4

    def test_fd_scalar_second_order(self):
        # halving h shrinks the gradient defect by ~4 (O(h^2) differences)
        f = GaussianScalar(2, 1.0, [0.5, 0.5], 0.6)
        pts = np.array([[0.2, 0.8], [1.1, 0.4]])
        d1 = np.max(np.abs(FiniteDifferenceScalar(2, f.value, 1e-3).grad(pts) - f.grad(pts)))
        d2 = np.max(np.abs(FiniteDifferenceScalar(2, f.value, 5e-4).grad(pts) - f.grad(pts)))
        assert d1 / d2 == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("field", [diag_affine_tensor(), CoupledQuadraticTensor()], ids=["diag_affine", "coupled_3d"])
    def test_fd_tensor_matches_analytic(self, field):
        fd = FiniteDifferenceTensor(field.dim, field.matrix, h_fd=1e-5)
        pts = np.array([[0.4, 0.9, 0.3], [2.0, 1.0, 1.4]])[:, : field.dim]
        assert fd.d_matrix(pts) == pytest.approx(field.d_matrix(pts), abs=1e-9)
        assert fd.grad_div(pts) == pytest.approx(field.grad_div(pts), abs=1e-5)

    # the second entry varies along its own axis, or along axis 0 as in the half-space shape
    @pytest.mark.parametrize("second_axis", [1, 0], ids=["own_axis", "other_axis"])
    @pytest.mark.parametrize("profile", ["const", "linear", "sin", "cos", "sin2"])
    def test_fd_profile_matches_analytic(self, profile, second_axis):
        field = tensor_preset(
            "diag_profile",
            2,
            entries=[
                {"profile": profile, "c0": 2.0, "c1": 0.7, "axis": 0},
                {"profile": profile, "c0": 3.0, "c1": -0.4, "axis": second_axis},
            ],
        )
        fd = FiniteDifferenceTensor(2, field.matrix, h_fd=1e-5)
        pts = np.array([[0.4, 0.9], [2.0, 1.0]])
        assert fd.d_matrix(pts) == pytest.approx(field.d_matrix(pts), abs=1e-9)
        assert central_grad_div(field, pts, 1e-6) == pytest.approx(field.grad_div(pts), abs=1e-8)
        if second_axis == 0:  # T_22 varies along x_1 only, so it adds nothing to div T
            assert not field.grad_div(pts)[:, :, 1].any()


class TestOperatorConstants:
    def test_invariants_enforced(self):
        from etagap.fields import OperatorConstants

        with pytest.raises(ValueError):
            OperatorConstants(n=2, epsilon=0.0, delta=1.0)
        with pytest.raises(ValueError):
            OperatorConstants(n=2, epsilon=2.0, delta=1.0)
        with pytest.raises(ValueError):
            OperatorConstants(n=2, epsilon=1.0, delta=1.0, t0=-0.1)
        with pytest.raises(ValueError):
            OperatorConstants(n=2, epsilon=1.0, delta=1.0, kappa1=0.5, kappa2=1.0)
        with pytest.raises(ValueError):
            OperatorConstants(n=2, epsilon=1.0, delta=1.0, d=0.0)

    def test_sigma_and_exponent(self):
        from etagap.fields import OperatorConstants

        c = OperatorConstants(n=2, epsilon=2.0, delta=3.0)
        assert c.sigma == 4.0
        assert c.exponent == 0.75


class TestRadiallyConstantValidation:
    def test_accepts_vertical_invariant_field(self):
        dom = make_box_domain([(0, 1), (1, 2)], [8, 8], HYP2)
        validate_radially_constant(AffineScalar([1.0, 0.0]).value, dom)

    def test_rejects_vertical_variation(self):
        dom = make_box_domain([(0, 1), (1, 2)], [8, 8], HYP2)
        with pytest.raises(OutOfDomain):
            validate_radially_constant(AffineScalar([0.0, 1.0]).value, dom)

    @pytest.mark.parametrize("res", [[8, 8], [13, 9], [2, 2]])
    def test_reads_every_sth_cell_at_two_heights(self, res):
        # the Gauss points of about 64 cells, every s-th, their x_n moved to two heights
        dom = make_box_domain([(0, 1), (1, 2)], res, HYP2, lambda c: c[:, 0] + c[:, 1] < 2.6)
        pts = quadrature_reference.quadrature(dom)[0].reshape(dom.n_cells, 4, 2)
        seen = []
        validate_radially_constant(lambda p: seen.append(p.copy()) or np.zeros(len(p)), dom)
        want = pts[:: max(1, dom.n_cells // 64)].reshape(-1, 2)
        for got, height in zip(seen, (0.37, 0.81)):
            assert np.array_equal(got[:, 0], want[:, 0]) and np.all(got[:, 1] == 1.0 + height)


# ---------------------------------------------------------------------------
# the field sample: structural zeros, one evaluation each, and the same bits
# as the array-path references
# ---------------------------------------------------------------------------


class StrictConstantTensor(TensorField):
    """A constant tensor that fails the test if anything builds one of its derivatives."""

    degree = 0

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)
        self.dim = self.mat.shape[0]

    def matrix(self, pts):
        return np.broadcast_to(self.mat, (pts.shape[0], self.dim, self.dim))

    def d_matrix(self, pts):
        raise AssertionError("built the first derivatives of a constant tensor")

    def grad_div(self, pts):
        raise AssertionError("built the second derivatives of a constant tensor")


class Counting:
    """Wraps a field and counts the calls of each evaluator."""

    EVALUATORS = ("matrix", "d_matrix", "grad_div", "grad", "hess")

    def __init__(self, inner):
        self.inner, self.dim, self.degree = inner, inner.dim, inner.degree
        self.calls = dict.fromkeys(self.EVALUATORS, 0)

    def __getattr__(self, name):
        evaluate = getattr(self.inner, name)
        if name not in self.EVALUATORS:
            return evaluate

        def counted(pts):
            self.calls[name] += 1
            return evaluate(pts)

        return counted


SAMPLE_TENSORS = {
    "identity": lambda: identity_tensor(2),
    "constant_diag": lambda: ConstantTensor(np.diag([2.0, 3.0])),
    "diag_profile": lambda: tensor_preset(
        "diag_profile",
        2,
        entries=[
            {"profile": "sin", "c0": 3.0, "c1": 0.6, "axis": 0},
            {"profile": "cos", "c0": 2.5, "c1": 0.4, "axis": 0},
        ],
    ),
    "coupled_3d": CoupledQuadraticTensor,
}


def sample_drift(kind: str, n: int) -> ScalarField:
    if kind == "zero":
        return ConstantScalar(n, 0.5)
    if kind == "affine":
        return AffineScalar([0.8, -0.3, 0.5][:n], 0.1)
    if kind == "gaussian":
        return GaussianScalar(n, 0.7, [0.4, 1.6, 1.2][:n], 0.5)
    quad = np.array([[1.0, 0.3, 0.0], [0.3, 0.5, 0.2], [0.0, 0.2, 0.8]])[:n, :n]
    return QuadraticScalar(quad, [0.2, 0.1, -0.4][:n])


def sample_domain(metric):
    if metric.dim == 3:
        return make_box_domain([(0, 1), (0, 1), (1, 2)], [5, 5, 5], metric)
    return make_box_domain([(0, 1), (1, 2)], [10, 10], metric)


class TestFieldSample:
    @pytest.mark.parametrize("hyperbolic", [False, True], ids=["euclidean", "hyperbolic"])
    @pytest.mark.parametrize("drift_kind", ["zero", "affine", "gaussian", "quadratic"])
    @pytest.mark.parametrize("tensor_kind", list(SAMPLE_TENSORS))
    def test_constants_match_array_reference_bit_for_bit(self, tensor_kind, drift_kind, hyperbolic):
        field = SAMPLE_TENSORS[tensor_kind]()
        n = field.dim
        metric = (hyperbolic_half_plane if hyperbolic else euclidean)(n)
        dom = sample_domain(metric)
        drift = sample_drift(drift_kind, n)
        origin = np.array((0.3,) * (n - 1) + (4.0,))
        s = sample_at(field, drift, metric, dom)
        # repr tells -0.0 from 0.0 and prints every bit of a float
        assert repr(compute_T0(s)) == repr(ref_compute_T0(field, metric, dom))
        assert repr(compute_C0(s)) == repr(ref_compute_C0(field, drift, metric, dom))
        got = compute_eta_radial_constants(s, origin)
        assert repr(got) == repr(ref_compute_eta_radial_constants(drift, metric, dom, origin))
        trace, want = trace_nabla_T(s), ref_trace_nabla_T(s)
        assert (trace is None and want is None) or np.array_equal(trace, want)
        for f in (LogAxisScalar(n), AffineScalar([0.3, -0.7, 0.2][:n], 0.4)):
            assert np.array_equal(apply_operator_L(s, f), ref_apply_operator_L(s, f))

    def test_structural_zeros_are_none(self):
        pts = np.array([[0.2, 1.3], [0.7, 1.9]])
        const = sample_at(identity_tensor(2), ConstantScalar(2), EUC2, pts)
        assert (const.dT, const.grad_div, const.ge, const.he) == (None, None, None, None)
        assert (const.div, const.tge, const.v, const.dv) == (None, None, None, None)
        affine = sample_at(diag_affine_tensor(), AffineScalar([1.0, 2.0]), EUC2, pts)
        assert affine.he is None
        assert affine.dT.shape == (2, 2, 2, 2) and affine.grad_div.shape == (2, 2, 2)
        assert affine.div.shape == affine.tge.shape == affine.v.shape == (2, 2) and affine.dv.shape == (2, 2, 2)
        assert affine.ge.tolist() == [[1.0, 2.0], [1.0, 2.0]]
        assert sample_at(identity_tensor(2), QuadraticScalar(np.eye(2)), EUC2, pts).he.shape == (2, 2, 2)

    @pytest.mark.parametrize("metric", [EUC2, HYP2], ids=["euclidean", "hyperbolic"])
    def test_constant_tensor_builds_no_derivative(self, metric):
        mat = [[2.0, 0.5], [0.5, 3.0]]
        dom = sample_domain(metric)
        origin = np.array((0.3, 4.0))
        tfs = [axis_test_function(metric, axis) for axis in ((1,) if metric.is_hyperbolic else (0, 1))]
        for drift in (ConstantScalar(2), AffineScalar([0.8, 0.0]), GaussianScalar(2, 0.7, [0.4, 1.6], 0.5)):
            strict = sample_at(StrictConstantTensor(mat), drift, metric, dom)
            plain = sample_at(ConstantTensor(mat), drift, metric, dom)
            assert compute_T0(strict) == compute_T0(plain) == ref_compute_T0(ConstantTensor(mat), metric, dom)
            assert compute_C0(strict) == compute_C0(plain) == ref_compute_C0(ConstantTensor(mat), drift, metric, dom)
            assert compute_eta_radial_constants(strict, origin) == compute_eta_radial_constants(plain, origin)
            assert np.array_equal(apply_operator_L(strict, LogAxisScalar(2)), apply_operator_L(plain, LogAxisScalar(2)))
            for tf in tfs:
                for got, want in zip(tf.lf_and_grad(strict), tf.lf_and_grad(plain)):
                    assert (got is None and want is None) or np.array_equal(got, want)

    def test_each_field_evaluated_at_most_once(self):
        metric = hyperbolic_half_plane(3)
        dom = sample_domain(metric)
        field = Counting(CoupledQuadraticTensor())
        drift = Counting(GaussianScalar(3, 0.7, [0.4, 0.5, 1.6], 0.5))
        s = sample_at(field, drift, metric, dom)
        compute_T0(s)
        compute_C0(s)
        compute_eta_radial_constants(s, np.array((0.3, 0.3, 4.0)))
        axis_test_function(metric, 2).lf_and_grad(s)
        apply_operator_L(s, LogAxisScalar(3))
        s.apply_T(np.ones((dom.quadrature()[0].shape[0], 3)))
        assert field.calls == {"matrix": 1, "d_matrix": 1, "grad_div": 1, "grad": 0, "hess": 0}
        assert drift.calls == {"matrix": 0, "d_matrix": 0, "grad_div": 0, "grad": 1, "hess": 1}

    @pytest.mark.parametrize("metric", [euclidean(3), hyperbolic_half_plane(3)], ids=["euclidean", "hyperbolic"])
    def test_no_cached_array_has_more_than_four_axes(self, metric):
        # T's derivatives are dT (m, n, n, n) and grad div T (m, n, n), never the (m, n, n, n, n) second partials
        s = sample_at(diag_profile_tensor(3), sample_drift("quadratic", 3), metric, sample_domain(metric))
        compute_T0(s)
        compute_C0(s)
        axis_test_function(metric, 2).lf_and_grad(s)
        cached = {name: a for name, a in vars(s).items() if isinstance(a, np.ndarray)}
        assert {"dT", "grad_div", "div", "v", "dv"} <= set(cached)
        assert max(a.ndim for a in cached.values()) <= 4

    def test_grid_points_by_rows(self):
        # any run of whole cells' rows of a domain's Gauss points, formed from its grid, equals the whole-array rows
        dom = make_box_domain([(0, 1), (1, 2)], [9, 7], HYP2, lambda c: np.linalg.norm(c - [0.5, 1.5], axis=1) < 0.45)
        pts = quadrature_reference.quadrature(dom)[0]
        s = sample_at(identity_tensor(2), ConstantScalar(2), HYP2, dom)
        m = len(pts)
        assert s.size == m
        for q in (slice(None), slice(0, 4), slice(4, 16), slice(8, 16), slice(m - 8, None), slice(8, 8)):
            assert np.array_equal(s.points(q), pts[q])

    @pytest.mark.parametrize("metric", [EUC2, HYP2], ids=["euclidean", "hyperbolic"])
    def test_grid_sample_keeps_no_points(self, metric):
        dom = sample_domain(metric)
        s = sample_at(diag_affine_tensor(), sample_drift("gaussian", 2), metric, dom)
        compute_T0(s)
        compute_C0(s)
        compute_eta_radial_constants(s, np.array((0.3, 4.0)))
        axis_test_function(metric, 1).lf_and_grad(s)
        pts = quadrature_reference.quadrature(dom)[0]
        cached = [a for a in vars(s).values() if isinstance(a, np.ndarray)]
        assert len(cached) >= 6 and not any(a.shape == pts.shape and np.array_equal(a, pts) for a in cached)
        constant = sample_at(identity_tensor(2), ConstantScalar(2), metric, dom)
        assert constant.theta.shape == (len(pts), 2, 2) and constant.theta.strides[0] == 0

    @pytest.mark.parametrize(
        "field",
        [ConstantTensor([[2.0, 0.5], [0.5, 3.0]]), diag_affine_tensor(), diag_profile_tensor(3), CoupledQuadraticTensor()],
        ids=["constant", "variable", "diagonal_3d", "coupled_3d"],
    )
    def test_apply_T_matches_einsum(self, field):
        n = field.dim
        pts = np.random.default_rng(4).uniform(0.5, 1.5, size=(12, n))
        v = np.random.default_rng(5).standard_normal((12, n))
        v[3] = 0.0  # a zero gradient
        s = sample_at(field, ConstantScalar(n), euclidean(n), pts)
        got, want = s.apply_T(v), np.einsum("qab,qb->qa", field.matrix(pts), v)
        if field.degree == 0:
            assert np.allclose(got, want, rtol=1e-15, atol=0)
        else:  # a diagonal T as an elementwise product: its zero off-diagonal terms add nothing
            assert np.array_equal(got, want)
        assert np.array_equal(s.apply_T(v[4:9], slice(4, 9)), got[4:9])
