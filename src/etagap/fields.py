"""Coefficient fields and the scalar constants the gap bounds consume.

The operator under study is L u = div(T(grad u)) - <grad eta, T(grad u)>,
acting on a weighted L^2 space with measure e^(-eta) dV_g.  This module
holds the tensor field T, the drift function eta, their derivatives, and
the extraction of every constant entering the bound formulas:

    epsilon, delta   pointwise eigenvalue bounds of T
    t0               sup |tr(nabla T)|
    c0               sup { 1/2 div(T(T(grad eta) - tr(nabla T))) - 1/4 |T(grad eta)|^2 }
    eta1, eta_r      radial Hessian / radial derivative bounds of eta

Both metrics are g = rho^-2 delta with rho affine, so b = grad rho is
constant (geometry.MetricModel); tensor entries are given in the orthonormal
frame e_i = rho d_i, where they equal the coordinate matrix.  The symbols
Gamma^k_ij = -(d_ki b_j + d_kj b_i - d_ij b_k)/rho give one formula each:

    tr(nabla T)   rho sum_j d_j T_.j + tr(T) b - n T b
    d_i(rho V)    rho d_i V + b_i V
    div W         rho sum_i d_i W_i + (1 - n) <b, W>
    Hess eta      he + (b_i g_j + b_j g_i - d_ij <b, g>)/rho, g = d eta
    L f           rho^2 (T : Hess_0 f - <v, df>) - (n - 2) rho <b, T df>
    L f_a         rho u - (n - 1)(T b)_a, u = -v_a

with v = T(d eta) - div T, div T = sum_j d_j T_.j, Hess_0 the coordinate
Hessian and df_a = e_a / rho for the cor32 test function f_a.  Every
derivative is closed-form; grad div T is the only second one of T read.
The constants, L f and f_a read a FieldSample: T, its partials, the drift
derivatives, rho and their shared contractions at one point set, each
evaluated at most once.  A structural zero (None), a derivative that a field's
degree makes zero or b where rho = 1 (Euclidean), skips the terms it multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DerivativeUnavailable,
    NotPositiveDefinite,
    OutOfDomain,
)
from .geometry import GridDomain, MetricModel, radial_unit_vector

# ---------------------------------------------------------------------------
# scalar fields (drift functions and closed-form test functions)
# ---------------------------------------------------------------------------


class ScalarField:
    """Closed-form scalar function with gradient and Hessian evaluators.

    Evaluators are vectorized: value (m,), grad (m, n), hess (m, n, n) for
    an (m, n) array of points.  ``degree`` is the polynomial degree when the
    type fixes one; derivatives of higher order are structural zeros that
    ``FieldSample`` never evaluates, so such a field need not implement them.
    """

    dim: int
    degree: int | None = None

    def value(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """grad f at pts; the result may be a read-only view, so callers do not write to it."""
        raise NotImplementedError

    def hess(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConstantScalar(ScalarField):
    degree = 0

    def __init__(self, dim: int, c: float = 0.0):
        self.dim = dim
        self.c = float(c)

    def value(self, pts):
        return np.full(pts.shape[0], self.c)

    def grad(self, pts):  # read when a constant is the lemma32 test function g
        return np.zeros((pts.shape[0], self.dim))


class AffineScalar(ScalarField):
    """c0 + <b, x>."""

    degree = 1

    def __init__(self, coeffs, c0: float = 0.0):
        self.b = np.asarray(coeffs, dtype=float)
        self.dim = self.b.size
        self.c0 = float(c0)

    def value(self, pts):
        return self.c0 + pts @ self.b

    def grad(self, pts):
        # a read-only view, as ConstantTensor.matrix
        return np.broadcast_to(self.b, (pts.shape[0], self.dim))

    def hess(self, pts):
        return np.zeros((pts.shape[0], self.dim, self.dim))


class QuadraticScalar(ScalarField):
    """c0 + <b, x> + 1/2 x^T Q x with symmetric Q."""

    def __init__(self, quad, coeffs=None, c0: float = 0.0):
        self.Q = np.asarray(quad, dtype=float)
        self.dim = self.Q.shape[0]
        self.b = np.zeros(self.dim) if coeffs is None else np.asarray(coeffs, dtype=float)
        self.c0 = float(c0)

    def value(self, pts):
        return self.c0 + pts @ self.b + 0.5 * np.einsum("qi,ij,qj->q", pts, self.Q, pts)

    def grad(self, pts):
        return self.b[None, :] + pts @ self.Q

    def hess(self, pts):
        return np.broadcast_to(self.Q, (pts.shape[0], self.dim, self.dim)).copy()


class GaussianScalar(ScalarField):
    """a * exp(-|x - x0|^2 / (2 s^2))."""

    def __init__(self, dim: int, amplitude: float, center, width: float):
        self.dim = dim
        self.a = float(amplitude)
        self.x0 = np.asarray(center, dtype=float)
        self.s2 = float(width) ** 2

    def value(self, pts):
        d = pts - self.x0[None, :]
        return self.a * np.exp(-0.5 * np.sum(d * d, axis=1) / self.s2)

    def grad(self, pts):
        d = pts - self.x0[None, :]
        return -self.value(pts)[:, None] * d / self.s2

    def hess(self, pts):
        d = pts - self.x0[None, :]
        v = self.value(pts)
        eye = np.eye(self.dim)
        outer = np.einsum("qi,qj->qij", d, d) / self.s2**2
        return v[:, None, None] * (outer - eye[None, :, :] / self.s2)


class LogAxisScalar(ScalarField):
    """ln(x_axis); the canonical unit-gradient function of the half-space."""

    def __init__(self, dim: int, axis: int | None = None):
        self.dim = dim
        self.axis = dim - 1 if axis is None else int(axis)

    def value(self, pts):
        x = pts[:, self.axis]
        if np.any(x <= 0.0):
            raise OutOfDomain("log coordinate requires a positive coordinate")
        return np.log(x)

    def grad(self, pts):
        g = np.zeros((pts.shape[0], self.dim))
        g[:, self.axis] = 1.0 / pts[:, self.axis]
        return g

    def hess(self, pts):
        h = np.zeros((pts.shape[0], self.dim, self.dim))
        h[:, self.axis, self.axis] = -1.0 / pts[:, self.axis] ** 2
        return h


def drift_preset(kind: str, dim: int, **params) -> ScalarField:
    """Named drift families: zero/constant {c}, affine {coeffs, c0}, quadratic {quad, coeffs, c0}, gaussian
    {amplitude, center, width}.

    The parameters are as the config table parses them (numbers or decimal strings, vectors with one entry
    per axis) and are not checked again; without ``quad`` a quadratic's matrix is the identity.
    """
    if kind == "constant" or kind == "zero":
        return ConstantScalar(dim, **params)
    if kind == "affine":
        return AffineScalar(**params)
    if kind == "quadratic":
        quad = params.pop("quad", None)
        return QuadraticScalar(np.eye(dim) if quad is None else quad, **params)
    if kind == "gaussian":
        return GaussianScalar(dim, **params)
    raise ValueError(f"unknown drift preset {kind!r}")


# ---------------------------------------------------------------------------
# tensor fields
# ---------------------------------------------------------------------------


# profile phi -> (phi, phi', phi'') of one coordinate, one callable per order
PROFILES = {
    "const": (np.zeros_like,) * 3,
    "linear": (lambda x: x, np.ones_like, np.zeros_like),
    "sin": (np.sin, np.cos, lambda x: -np.sin(x)),
    "cos": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
    "sin2": (lambda x: np.sin(x) ** 2, lambda x: np.sin(2.0 * x), lambda x: 2.0 * np.cos(2.0 * x)),
}


class _Coef:
    """Univariate diagonal-entry profile c0 + c1 * phi(x_axis)."""

    def __init__(self, profile: str = "const", c0: float = 0.0, c1: float = 0.0, axis: int = 0):
        if profile not in PROFILES:
            raise ValueError(f"unknown coefficient profile {profile!r}")
        self.profile = profile
        self.c0 = float(c0)
        self.c1 = float(c1)
        self.axis = int(axis)

    def _phi(self, pts, order: int):
        return PROFILES[self.profile][order](pts[:, self.axis])

    def value(self, pts):
        return self.c0 + self.c1 * self._phi(pts, 0)

    def d1(self, pts):
        return self.c1 * self._phi(pts, 1)

    def d2(self, pts):
        return self.c1 * self._phi(pts, 2)


class TensorField:
    """Symmetric positive-definite coefficient tensor, orthonormal-frame entries.

    matrix(pts) -> (m, n, n); d_matrix -> (m, n, n, n) with [q, k, i, j] the
    partial d_k T_ij; grad_div -> (m, n, n) with [q, k, i] = d_k sum_j d_j T_ij.
    No formula reads another second derivative.  Presets carry analytic
    derivatives.  ``degree`` is as for ScalarField: a tensor of degree 0 is
    constant, and its derivatives are never evaluated.
    """

    dim: int
    degree: int | None = None

    def matrix(self, pts: np.ndarray) -> np.ndarray:
        """T at pts; the result may be a read-only view, so callers do not write to it."""
        raise NotImplementedError

    def d_matrix(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_div(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConstantTensor(TensorField):
    degree = 0

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)
        if not np.array_equal(self.mat, self.mat.T):
            raise NotPositiveDefinite("constant tensor must be symmetric")
        self.dim = self.mat.shape[0]

    def matrix(self, pts):
        # a read-only view: one copy of T per quadrature point is never needed
        return np.broadcast_to(self.mat, (pts.shape[0], self.dim, self.dim))


def identity_tensor(dim: int, scale: float = 1.0) -> ConstantTensor:
    return ConstantTensor(np.eye(dim) * float(scale))


class DiagonalTensor(TensorField):
    """Diagonal tensor whose entries are univariate coordinate profiles."""

    def __init__(self, coefs: list[_Coef]):
        self.coefs = list(coefs)
        self.dim = len(coefs)

    def matrix(self, pts):
        m = pts.shape[0]
        out = np.zeros((m, self.dim, self.dim))
        for i, c in enumerate(self.coefs):
            out[:, i, i] = c.value(pts)
        return out

    def d_matrix(self, pts):
        m = pts.shape[0]
        out = np.zeros((m, self.dim, self.dim, self.dim))
        for i, c in enumerate(self.coefs):
            out[:, c.axis, i, i] = c.d1(pts)
        return out

    def grad_div(self, pts):
        out = np.zeros((pts.shape[0], self.dim, self.dim))
        for i, c in enumerate(self.coefs):
            if c.axis == i:  # sum_j d_j T_ij = d_i T_ii: an entry along another axis drops out
                out[:, i, i] = c.d2(pts)
        return out


def tensor_preset(kind: str, dim: int, **params) -> TensorField:
    """Named tensor families: identity {scale}, constant {matrix}, constant_diag {entries}, diag_profile
    {entries}, each diag_profile entry {profile, c0, c1, axis}.

    The parameters are as for drift_preset: parsed by the config table, not checked again.
    """
    if kind == "identity":
        return identity_tensor(dim, **params)
    if kind == "constant":
        return ConstantTensor(params["matrix"])
    if kind == "constant_diag":
        return ConstantTensor(np.diag(np.asarray(params["entries"], dtype=float)))
    if kind == "diag_profile":
        return DiagonalTensor([_Coef(**entry) for entry in params["entries"]])
    raise ValueError(f"unknown tensor preset {kind!r}")


# ---------------------------------------------------------------------------
# one sample of the fields, and the constants read from it
# ---------------------------------------------------------------------------


def tensor_eigen_range(mats: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue over a stack of tensor matrices (m, n, n)."""
    if mats.strides[0] == 0:
        mats = mats[:1]  # a broadcast of one matrix, as ConstantTensor.matrix returns
    if np.any(mats != np.swapaxes(mats, 1, 2)):
        raise NotPositiveDefinite("tensor not symmetric at a sample point")
    n = mats.shape[1]
    if np.any(mats[:, ~np.eye(n, dtype=bool)]):
        eigs = np.linalg.eigvalsh(mats)
        lo, hi = float(np.min(eigs[:, 0])), float(np.max(eigs[:, -1]))
    else:  # an exactly diagonal stack: its eigenvalues are the diagonal entries
        diag = np.diagonal(mats, axis1=1, axis2=2)
        lo, hi = float(np.min(diag)), float(np.max(diag))
    if lo <= 0.0:
        raise NotPositiveDefinite(f"smallest tensor eigenvalue {lo} <= 0")
    return lo, hi


def tensor_bounds(field: TensorField, domain: GridDomain) -> tuple[float, float]:
    """(epsilon, delta): extreme tensor eigenvalues over quadrature points."""
    return tensor_eigen_range(field.matrix(domain.quadrature()[0]))


def _christoffel_part(mats: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rho times the Christoffel part of tr(nabla T) for symmetric mats[..., i, j].

    That part is sum_jm Gamma^a_jm T_mj - sum_m T_am sum_j Gamma^m_jj; with
    the symbols of g = rho^-2 delta, rho times it is tr(T) b - n T b.
    """
    n = mats.shape[-1]
    return np.tensordot(np.einsum("...ii->...", mats), b, axes=0) - n * np.tensordot(mats, b, axes=1)


def _vanishes(f, order: int) -> bool:
    """Whether the order-th derivatives of f are zero by its declared degree."""
    return f.degree is not None and f.degree < order


def _scaled(rho, x):
    """rho x, with rho along the point axis; x itself where rho = 1 (None) or x vanishes."""
    if rho is None or x is None:
        return x
    return rho.reshape(rho.shape + (1,) * (x.ndim - 1)) * x


def _sum(*terms):
    """Left-to-right sum of the terms that are not None; None if all are."""
    out = None
    for term in terms:
        if term is not None:
            out = term if out is None else out + term
    return out


class FieldSample:
    """T, eta and their derivatives at the (m, n) points ``pts``, such as one chunk of Gauss points.

    Every array is computed once, on its first read: theta (m, n, n), dT
    (m, n, n, n), grad_div (m, n, n), ge (m, n), he (m, n, n), rho (m,) and
    the shared contractions christoffel (m, n), div (m, n), tge = T d eta,
    v = tge - div and dv with [q, i, j] = d_i v_j; b = grad rho (n,) is the
    metric's.  A derivative that the field's degree makes zero is None, a
    structural zero, not an array: dT and grad_div of a constant tensor, ge
    of a constant drift, he of a constant or affine one, rho and b where
    rho = 1, and a contraction of such zeros.  Every reader skips the terms
    with such a factor.
    """

    def __init__(self, field: TensorField, drift: ScalarField, metric: MetricModel, pts: np.ndarray):
        self.field, self.drift, self.metric, self.pts = field, drift, metric, pts
        self.b = metric.grad_rho

    def _derivative(self, f, order: int, evaluate):
        if _vanishes(f, order):
            return None
        try:
            return evaluate(self.pts)
        except NotImplementedError as exc:
            raise DerivativeUnavailable(f"{type(f).__name__} has no order-{order} derivatives") from exc

    @cached_property
    def theta(self) -> np.ndarray:
        return self.field.matrix(self.pts)

    @cached_property
    def dT(self) -> np.ndarray | None:
        return self._derivative(self.field, 1, self.field.d_matrix)

    @cached_property
    def grad_div(self) -> np.ndarray | None:
        return self._derivative(self.field, 2, self.field.grad_div)

    @cached_property
    def ge(self) -> np.ndarray | None:
        return self._derivative(self.drift, 1, self.drift.grad)

    @cached_property
    def he(self) -> np.ndarray | None:
        return self._derivative(self.drift, 2, self.drift.hess)

    @cached_property
    def rho(self) -> np.ndarray | None:
        return None if self.b is None else self.metric.rho(self.pts)

    @cached_property
    def christoffel(self) -> np.ndarray | None:
        """tr(T) b - n T b, rho times the Christoffel part of tr(nabla T); None where rho = 1."""
        return None if self.b is None else _christoffel_part(self.theta, self.b)

    @cached_property
    def div(self) -> np.ndarray | None:
        return None if self.dT is None else np.einsum("qjij->qi", self.dT)

    @cached_property
    def tge(self) -> np.ndarray | None:
        return None if self.ge is None else np.einsum("qij,qj->qi", self.theta, self.ge)

    @cached_property
    def v(self) -> np.ndarray | None:
        return _sum(self.tge, None if self.div is None else -self.div)

    @cached_property
    def dv(self) -> np.ndarray | None:
        # d_i v_j = -d_i div_j + sum_m (d2_im eta T_mj + d_i T_jm dm eta)
        return _sum(
            None if self.grad_div is None else -self.grad_div,
            None if self.he is None else self.he @ self.theta,
            None if self.dT is None or self.ge is None else np.einsum("qijm,qm->qij", self.dT, self.ge),
        )

    def apply_T(self, v: np.ndarray) -> np.ndarray:
        """T v, for v with one row per point."""
        if self.field.degree == 0:
            return v @ self.theta[0].T
        if isinstance(self.field, DiagonalTensor):  # its exactly zero off-diagonal terms add nothing
            return np.diagonal(self.theta, axis1=1, axis2=2) * v
        return np.einsum("qab,qb->qa", self.theta, v)


def trace_nabla_T(sample: FieldSample) -> np.ndarray | None:
    """tr(nabla T) = sum_j (nabla_{e_j} T)(e_j), orthonormal-frame components.

    That is rho sum_j d_j T_.j + tr(T) b - n T b.  None where it vanishes
    structurally: a constant T in Euclidean space.
    """
    return _sum(_scaled(sample.rho, sample.div), sample.christoffel)


def compute_T0(sample: FieldSample) -> float:
    """sup over the sample points of |tr(nabla T)| in the metric norm."""
    vec = trace_nabla_T(sample)
    return 0.0 if vec is None else float(np.max(np.linalg.norm(vec, axis=1)))


def compute_C0(sample: FieldSample) -> float:
    """sup { 1/2 div(T(T(grad eta) - tr(nabla T))) - 1/4 |T(grad eta)|^2 }.

    Every derivative is analytic.  With d the coordinate partials and
    v = T(d eta) - div T as sampled, the orthonormal grad eta is rho d eta and
    the inner field is V = rho v - (tr(T) b - n T b), so with b constant
    d_i V = rho d_i v + b_i v - (tr(d_i T) b - n (d_i T) b) and W = T(V).
    """
    theta, dT, div, v, dv = sample.theta, sample.dT, sample.div, sample.v, sample.dv
    rho, b, n = sample.rho, sample.b, sample.metric.dim
    dV = _sum(
        _scaled(rho, dv),
        None if b is None or dT is None else -_christoffel_part(dT, b),
        None if b is None or v is None else np.tensordot(v, b, axes=0).swapaxes(1, 2),  # b_i v_j
    )
    V = _sum(_scaled(rho, v), None if b is None else -sample.christoffel)
    div_w = _sum(
        None if div is None else np.einsum("qj,qj->q", div, V),
        None if dV is None else np.einsum("qij,qij->q", theta, dV),
    )
    # div W = rho sum_i d_i W_i + (1 - n) <b, W>, with <b, T V> = <T b, V>
    div_w = _sum(
        _scaled(rho, div_w),
        None if b is None else (1 - n) * np.einsum("qj,qj->q", np.tensordot(theta, b, axes=1), V),
    )
    tge = _scaled(rho, sample.tge)
    val = _sum(
        None if div_w is None else 0.5 * div_w,
        None if tge is None else -0.25 * np.sum(tge * tge, axis=1),
    )
    # + 0.0: without its structurally zero terms an exactly zero sup could read -0.0
    return 0.0 if val is None else float(np.max(val)) + 0.0


def compute_eta_radial_constants(sample: FieldSample, origin: np.ndarray) -> tuple[float, float]:
    """(eta1, eta_r): radial Hessian and radial derivative bounds of eta.

    eta1 = max |Hess eta (d_r, d_r)|, eta_r = max |<grad eta, d_r>| over the
    sample points, with d_r the metric-unit radial direction from the
    origin (n,), which must lie outside the sampled domain
    (geometry.domain_origin_distance checks that).
    """
    ge, he, b = sample.ge, sample.he, sample.b
    v = radial_unit_vector(sample.metric, origin, sample.pts)
    if b is not None and ge is not None:
        # covariant Hessian he - Gamma(d eta) = he + b_i g_j + b_j g_i - d_ij <b, g>, g = d eta / rho
        g = (1.0 / sample.rho)[:, None] * ge
        gb = np.tensordot(g, b, axes=0)
        he = _sum(he, gb + gb.swapaxes(1, 2) - np.tensordot(g @ b, np.eye(b.size), axes=0))
    eta1 = 0.0 if he is None else float(np.max(np.abs(np.einsum("qij,qi,qj->q", he, v, v))))
    eta_r = 0.0 if ge is None else float(np.max(np.abs(np.sum(ge * v, axis=1))))
    return eta1, eta_r


def apply_operator_L(sample: FieldSample, f: ScalarField) -> np.ndarray:
    """Pointwise L f = div(T(grad f)) - <grad eta, T(grad f)> at the sample points."""
    pts, theta, b, v, rho = sample.pts, sample.theta, sample.b, sample.v, sample.rho
    gf = f.grad(pts)
    hf = None if _vanishes(f, 2) else f.hess(pts)
    # div_0(T df) - <d eta, T df> = <div T, df> + T : Hess_0 f - <T d eta, df> = T : Hess_0 f - <v, df>
    flat = _sum(
        None if hf is None else np.einsum("qij,qij->q", theta, hf),
        None if v is None else -np.einsum("qi,qi->q", v, gf),
    )
    rho2 = None if rho is None else rho**2
    tgf_b = None if b is None else np.einsum("qj,qj->q", np.tensordot(theta, b, axes=1), gf)  # <b, T df>
    # L f = rho^2 (div_0(T df) - <d eta, T df>) - (n - 2) rho <b, T df>
    out = _sum(
        _scaled(rho2, flat),
        None if b is None else -((sample.metric.dim - 2) * rho * tgf_b),
    )
    return np.zeros(pts.shape[0]) if out is None else out


@dataclass(frozen=True)
class OperatorTestFunction:
    """A closed-form f bundled with analytic L f and grad(L f).

    lf_and_grad(sample) returns (L f, grad(L f)), one value and one
    n-vector per point of a FieldSample, with None for a structural zero.
    """

    f: ScalarField
    lf_and_grad: object


def axis_test_function(metric: MetricModel, axis: int) -> OperatorTestFunction:
    """f with df = e_a / rho (a = axis), so |grad f|_g = 1: x_a where rho = 1, ln x_n in the half-space.

    It exists where rho varies along axis a alone (b = None or e_a).  With
    u = sum_j d_j T_ja - (T d eta)_a = -v_a, L f = rho u - (n - 1)(T b)_a and
    d_k L f = b_k u + rho d_k u - (n - 1) sum_m d_k T_am b_m, d_k u = -d_k v_a.
    """
    n, b, unit = metric.dim, metric.grad_rho, np.eye(metric.dim)[axis]
    if b is not None and not np.array_equal(b, unit):
        raise ValueError(f"no unit-gradient test function along axis {axis}: rho varies along another axis")
    f = AffineScalar(unit) if b is None else LogAxisScalar(n, axis)

    def lf_and_grad(s: FieldSample):
        u = None if s.v is None else -s.v[:, axis]
        du = None if s.dv is None else -s.dv[:, :, axis]
        lf = _sum(_scaled(s.rho, u), None if b is None else (1 - n) * (s.theta[:, axis, :] @ b))
        grad = _sum(
            None if b is None or u is None else np.tensordot(u, b, axes=0),
            _scaled(s.rho, du),
            # an einsum, not @: dT[:, :, axis, :] is a strided view
            None if b is None or s.dT is None else (1 - n) * np.einsum("qkm,m->qk", s.dT[:, :, axis, :], b),
        )
        return lf, grad

    return OperatorTestFunction(f, lf_and_grad)


def validate_radially_constant(values_func, domain: GridDomain) -> None:
    """Reject half-space fields that vary along x_n (beyond 1e-12).

    values_func maps an (m, n) point array to an (m, ...) value array.
    """
    (lo, hi) = domain.bounds[-1]
    shifted, _ = domain.quadrature(slice(None, None, max(1, domain.n_cells // 64)))  # every s-th cell, about 64
    base = shifted.copy()
    shifted[:, -1] = lo + (hi - lo) * 0.37
    base[:, -1] = lo + (hi - lo) * 0.81
    defect = np.max(np.abs(np.asarray(values_func(shifted)) - np.asarray(values_func(base))))
    if defect > 1e-12:
        raise OutOfDomain(
            f"field varies along x_n by {defect:.3e}; radially-constant hypothesis violated"
        )


@dataclass(frozen=True)
class OperatorConstants:
    """Every scalar the bound formulas consume.

    epsilon/delta bound the tensor's Rayleigh quotient; t0 and c0 are the
    derivative suprema; h0 is the mean-curvature bound (config input, 0 in
    Euclidean space); eta1/eta_r are radial drift bounds; kappa1/kappa2 pin
    the curvature range; d is the distance to the reference origin.
    """

    n: int
    epsilon: float
    delta: float
    t0: float = 0.0
    c0: float = 0.0
    h0: float = 0.0
    eta1: float = 0.0
    eta_r: float = 0.0
    kappa1: float = 0.0
    kappa2: float = 0.0
    d: float = float("inf")
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (0.0 < self.epsilon <= self.delta):
            raise ValueError("need 0 < epsilon <= delta")
        for name in ("t0", "h0", "eta1", "eta_r"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not (0.0 <= self.kappa2 <= self.kappa1):
            raise ValueError("need 0 <= kappa2 <= kappa1")
        if not self.d > 0.0:
            raise ValueError("origin distance must be positive")

    @property
    def sigma(self) -> float:
        return 2.0 * self.delta - self.epsilon

    @property
    def exponent(self) -> float:
        return self.delta / (self.n * self.epsilon)
