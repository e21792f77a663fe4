"""Explicit gap-bound constants and inequality verifiers.

Everything here evaluates closed-form constants or checks inequalities
against a spectrum (computed or analytic):

  * the sequence inequality for nondecreasing positive sequences
    (``lemma31_check``) in its termwise form, every term of
    sum r_i^2 (mu_i - mu_m1)(mu_i - mu_{m1+1}) >= 0, and its hypothesis as
    the exact strict case of Cauchy-Schwarz, with a seeded random-instance
    generator and a chunked property suite (``lemma31_suite``) over both;
  * the three gap-constant families, tagged thm11 (Euclidean), thm12
    (hyperbolic half-space) and thm13 (pinched Cartan-Hadamard), each with
    its corollary specializations;
  * the eigenvalue growth bound (``yang_check``);
  * the consecutive-gap verification ``gap_check`` producing a GapReport;
  * the two-sided test-function inequalities (``cor32_check``, for a
    mapping from label to test function) and the real-test-function
    inequality (``lemma32_check``), each a list of rows k = 1, 2, ...
    read off any computed low spectrum, with integrals from a reader of the
    one pass over the Gauss points (``cor32_reader``, ``lemma32_reader``).

Every check returns rows of one shape, ``VerdictRow``: k, a ``status``,
the ``claims`` lhs <= rhs it rests on as (claim, lhs, rhs) triples, a
skip ``reason``, and the values it reports beside them in ``extra``.  A
row passes when every claim ``holds``; ``tally`` counts rows by status.
The k = 1 gap row is info, and a cor32 or lemma32 row outside the one
admissibility rule of ``_rows`` is skipped.  Checks never hide numerical
error: a gap row that exceeds its bound by less than three times the
estimated discretization error is ``inconclusive`` rather than ``fail``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import assembly
from .errors import (
    InsufficientSpectrum,
    InvalidInstance,
    NonpositiveRadicand,
    NonpositiveUpsilon,
    UnitGradientViolation,
)
from .fields import OperatorConstants, OperatorTestFunction, ScalarField, apply_operator_L
from .geometry import gradient_norm
from .spectral import SpectrumResult, multiplet_labels

PASS_REL_TOL = 1e-12
SCHEMA_VERSION = 1


def holds(lhs: float, rhs: float) -> bool:
    """The pass rule of every inequality check: lhs <= rhs up to PASS_REL_TOL (False for a nan side)."""
    return bool(lhs <= rhs * (1.0 + PASS_REL_TOL))


@dataclass(frozen=True)
class VerdictRow:
    """One row of a check: k, its status, and the claims lhs <= rhs it rests on."""

    k: int
    status: str  # pass | fail | inconclusive | info | skipped
    claims: tuple = ()  # (claim, lhs, rhs) triples; none on a row skipped before any integral
    reason: str = ""  # why a row is skipped
    extra: dict = field(default_factory=dict)  # what the check reports beside its claims


def verdict(claims) -> str:
    """pass when every (claim, lhs, rhs) holds, fail otherwise."""
    return "pass" if all(holds(lhs, rhs) for _claim, lhs, rhs in claims) else "fail"


def tally(rows, out: dict) -> dict:
    """``out`` with one added under each row's status."""
    for row in rows:
        out[row.status] += 1
    return out


# ---------------------------------------------------------------------------
# sequence inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma31Instance:
    """Finite nondecreasing positive sequence mu with weights r.

    m1 is the multiplicity of mu[0]; the check requires r_{m1} != 0 and at
    least two distinct values so the two leading distinct entries exist.
    """

    mu: tuple
    r: tuple

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if mu.size != r.size or mu.size < 2:
            raise InvalidInstance("mu and r need equal length >= 2")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(r))):
            raise InvalidInstance("mu and r must be finite")
        if mu[0] <= 0.0 or np.any(np.diff(mu) < 0.0):
            raise InvalidInstance("mu must be positive and nondecreasing")
        m1 = int(np.sum(mu == mu[0]))
        if m1 >= mu.size:
            raise InvalidInstance("all mu equal; no second distinct value")
        if r[m1 - 1] == 0.0:
            raise InvalidInstance("r at the last leading-multiplet slot must be nonzero")

    @property
    def m1(self) -> int:
        mu = np.asarray(self.mu, dtype=float)
        return int(np.sum(mu == mu[0]))


@dataclass(frozen=True)
class Lemma31Result:
    s: float
    a: float
    b: float
    bound: float
    hypothesis_ok: bool
    conclusion_ok: bool


LEMMA31_CHUNK = 4096  # trials per array pass, so memory stays bounded for any trial count


def _lemma31_rows(mu: np.ndarray, r: np.ndarray, m1: np.ndarray) -> tuple:
    """(hypothesis_ok, conclusion_ok) arrays, one entry per row, both exact.

    Times mu_{m1} + mu_{m1+1} > 0 the lemma reads
    sum r_i^2 (mu_i - mu_{m1})(mu_i - mu_{m1+1}) >= 0; a row passes when
    every term is >= 0.  A term's sign is the product of its factors'
    signs, 0 where r_i = 0, so no product is formed that could overflow
    or meet inf * 0.  The hypothesis S < sqrt(A) sqrt(B) is the strict
    case of Cauchy-Schwarz: it holds exactly when r is nonzero at some
    mu_i != mu_1.  Each row is one instance, padded on the right with
    r = 0, which adds only zero terms.
    """
    rows = np.arange(mu.shape[0])
    mu1, mu2 = mu[rows, m1 - 1, None], mu[rows, m1, None]
    nonzero = r != 0.0
    conclusion_ok = np.all(np.sign(mu - mu1) * np.sign(mu - mu2) * nonzero >= 0.0, axis=1)
    hypothesis_ok = np.any(nonzero & (mu != mu1), axis=1)
    return hypothesis_ok, conclusion_ok


def _fsum(terms) -> float:
    """``math.fsum`` of nonnegative terms, inf where their exact sum exceeds the double range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _lemma31_sums(inst: Lemma31Instance) -> tuple:
    """(s, a, b, bound) of one instance, each sum correctly rounded by ``math.fsum``.

    The terms are mu_i r_i^2, (mu_i r_i)^2 and r_i^2: each overflows only
    where its exact value leaves the double range, and none forms inf * 0,
    so a sum past that range reads inf and never nan.  The bound halves
    its numerator and denominator, which is exact for normal numbers, so
    that mu_m1 + mu_{m1+1} overflows only where the bound does.
    """
    mu, r = (np.asarray(v, dtype=float).tolist() for v in (inst.mu, inst.r))
    s = _fsum(m * (x * x) for m, x in zip(mu, r))
    a = _fsum((m * x) * (m * x) for m, x in zip(mu, r))
    b = _fsum(x * x for x in r)
    mu1, mu2 = mu[inst.m1 - 1], mu[inst.m1]
    return s, a, b, (0.5 * a + 0.5 * (mu1 * mu2 * b)) / (0.5 * mu1 + 0.5 * mu2)


def lemma31_check(inst: Lemma31Instance) -> Lemma31Result:
    """Weighted-mean bound: S <= (A + mu_m1 mu_{m1+1} B)/(mu_m1 + mu_{m1+1})."""
    mu, r = (np.asarray(v, dtype=float)[None] for v in (inst.mu, inst.r))
    hyp, concl = (bool(v[0]) for v in _lemma31_rows(mu, r, np.array([inst.m1])))
    return Lemma31Result(*_lemma31_sums(inst), hyp, concl)


def _draw_lemma31(rng: np.random.Generator, count: int) -> tuple:
    """``count`` random instances as padded (count, 50) mu and r, their lengths and m1.

    One bulk draw per variate: length ~ U{2..50}, mu_1 ~ U(0.1, 5), steps
    ~ U(0, 0.2) each zeroed with probability 0.3 (real multiplicities), a
    flat row lifted by 0.1 at its last entry, r ~ U(-1, 1) with r_{m1}
    redrawn while 0.  Past its length a row repeats its last mu and has
    r = 0, so mu never equals mu_1 there.
    """
    n = 50  # the longest instance; every row is padded to it
    rows, cols = np.arange(count), np.arange(n)
    length = rng.integers(2, n + 1, size=count)
    padding = cols >= length[:, None]
    mu1 = rng.uniform(0.1, 5.0, size=count)
    steps = rng.uniform(0.0, 0.2, size=(count, n - 1))
    steps[(rng.random((count, n - 1)) < 0.3) | padding[:, 1:]] = 0.0
    mu = mu1[:, None] + np.cumsum(np.pad(steps, ((0, 0), (1, 0))), axis=1)
    last = length - 1
    flat = mu[rows, last] == mu1
    mu[flat[:, None] & (cols >= last[:, None])] += 0.1
    r = rng.uniform(-1.0, 1.0, size=(count, n))
    r[padding] = 0.0
    m1 = np.sum(mu == mu[:, :1], axis=1)
    redraw = np.flatnonzero(r[rows, m1 - 1] == 0.0)
    while redraw.size:
        r[redraw, m1[redraw] - 1] = rng.uniform(-1.0, 1.0, size=redraw.size)
        redraw = redraw[r[redraw, m1[redraw] - 1] == 0.0]
    return mu, r, length, m1


def _instance(mu: np.ndarray, r: np.ndarray, length: np.ndarray, i: int) -> Lemma31Instance:
    """Row i of a padded draw, with the padding stripped."""
    return Lemma31Instance(tuple(mu[i, : length[i]].tolist()), tuple(r[i, : length[i]].tolist()))


def random_lemma31_instance(rng: np.random.Generator) -> Lemma31Instance:
    """Seeded random instance with moderate scales and real multiplicities."""
    return _instance(*_draw_lemma31(rng, 1)[:3], 0)


@dataclass(frozen=True)
class Lemma31Suite:
    hypothesis_satisfied: int
    counterexamples: list  # (Lemma31Instance, Lemma31Result) pairs, in trial order


def lemma31_suite(rng: np.random.Generator, trials: int) -> Lemma31Suite:
    """Check ``trials`` random instances, ``LEMMA31_CHUNK`` rows per array pass.

    Which instances a seed gives depends on the chunk size.  A one-trial
    suite checks the instance ``random_lemma31_instance`` draws from the
    same generator state.
    """
    satisfied, counterexamples = 0, []
    for start in range(0, trials, LEMMA31_CHUNK):
        mu, r, length, m1 = _draw_lemma31(rng, min(LEMMA31_CHUNK, trials - start))
        hyp, concl = _lemma31_rows(mu, r, m1)
        satisfied += int(np.count_nonzero(hyp))
        for i in np.flatnonzero(hyp & ~concl):
            inst = _instance(mu, r, length, i)
            counterexamples.append((inst, Lemma31Result(*_lemma31_sums(inst), True, False)))
    return Lemma31Suite(satisfied, counterexamples)


# ---------------------------------------------------------------------------
# gap-bound constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapConstant:
    """A bound constant with its exponent and corollary specializations."""

    tag: str
    value: float
    exponent: float
    corollaries: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def a_nT(n: int, epsilon: float, delta: float) -> float:
    """max(0, 2(n-1) delta^2 - (n-1)^2 epsilon^2)."""
    if n < 2 or not 0.0 < epsilon <= delta:
        raise ValueError("need n >= 2 and 0 < epsilon <= delta")
    return max(0.0, 2.0 * (n - 1) * delta**2 - (n - 1) ** 2 * epsilon**2)


# the constants each corollary fixes: T = I gives epsilon = delta = 1 and
# t0 = 0, a divergence-free (Cheng-Yau) tensor t0 = 0, no drift c0 = eta = 0
COROLLARIES = {
    "drifted_cheng_yau": {"t0": 0.0},
    "cheng_yau": {"t0": 0.0, "c0": 0.0, "eta1": 0.0, "eta_r": 0.0},
    "drifted_laplacian": {"epsilon": 1.0, "delta": 1.0, "t0": 0.0},
    "laplacian": {"epsilon": 1.0, "delta": 1.0, "t0": 0.0, "c0": 0.0, "eta1": 0.0, "eta_r": 0.0},
}


def _gap_constant(tag, formula, lambda1, consts, corollaries=tuple(COROLLARIES)) -> GapConstant:
    """formula(lambda1, consts) -> (value, details), and the formula on each corollary's constants.

    A corollary whose radicand is nonpositive reads nan.  A constant that overflows or is not finite raises ValueError.
    """
    try:
        value, details = formula(lambda1, consts)
        cor = {}
        for name in corollaries:
            try:
                cor[name] = formula(lambda1, replace(consts, **COROLLARIES[name]))[0]
            except NonpositiveRadicand:
                cor[name] = math.nan
    except OverflowError as exc:
        raise ValueError(f"the {tag} constant overflows: {exc}") from exc
    if not math.isfinite(value):
        raise ValueError(f"the {tag} constant is {value}")
    return GapConstant(tag, value, consts.exponent, cor, details)


def _theorem11(lambda1: float, consts: OperatorConstants) -> tuple:
    n, eps, dlt = consts.n, consts.epsilon, consts.delta
    shifted = lambda1 + (4.0 * consts.c0 + consts.t0**2) / (4.0 * dlt)
    if shifted <= 0.0:
        raise NonpositiveRadicand(f"lambda1 + (4c0 + t0^2)/(4 delta) = {shifted} <= 0")
    root = math.sqrt(dlt / (consts.sigma * n) * (1.0 + 4.0 * dlt / (n * eps)))
    return 4.0 * shifted * root, {"lambda1": lambda1, "shifted": shifted, "root": root}


def theorem11_constant(lambda1: float, consts: OperatorConstants) -> GapConstant:
    """Euclidean gap constant 4(l1 + (4c0+t0^2)/(4d)) sqrt(d/(sn)(1+4d/(ne)))."""
    return _gap_constant("thm11", _theorem11, lambda1, consts)


def _theorem12(lambda1: float, consts: OperatorConstants) -> tuple:
    n, eps, dlt = consts.n, consts.epsilon, consts.delta
    fac = 1.0 + 4.0 * dlt / (n * eps)
    rad1 = dlt * lambda1 - (eps**2 / 4.0) * (n - 1) ** 2
    rad2 = lambda1 + (n**2 * consts.h0**2 + 4.0 * consts.c0 + consts.t0**2) / (4.0 * dlt)
    if rad1 <= 0.0:
        raise NonpositiveRadicand(
            f"delta*lambda1 - (eps^2/4)(n-1)^2 = {rad1} <= 0: "
            "lambda1 is below the half-space ground-state threshold at this resolution"
        )
    if rad2 <= 0.0:
        raise NonpositiveRadicand(f"shifted lambda1 factor {rad2} <= 0")
    value = 4.0 / math.sqrt(consts.sigma) * math.sqrt(fac * rad1 * rad2)
    return value, {"lambda1": lambda1, "rad1": rad1, "rad2": rad2, "factor": fac}


def theorem12_constant(lambda1: float, consts: OperatorConstants) -> GapConstant:
    """Half-space gap constant with the (n-1)^2/4 ground-level subtraction."""
    return _gap_constant("thm12", _theorem12, lambda1, consts)


def _theorem13(lambda1: float, consts: OperatorConstants) -> tuple:
    n, eps, dlt = consts.n, consts.epsilon, consts.delta
    k1, k2, d = consts.kappa1, consts.kappa2, consts.d
    a = a_nT(n, eps, dlt)
    curv = (2.0 * (n - 1) * dlt**2 - (2 * n - 3) * eps**2) * k1**2
    curv -= (n**2 - 2 * n + 2) * eps**2 * k2**2
    inner = (
        dlt * lambda1
        + (curv + 2.0 * dlt**2 * consts.eta1) / 4.0
        + dlt**2 * consts.eta_r * (n - 1) * (k1 + 1.0 / d) / 2.0
        + a / (4.0 * d**2)
    )
    last = lambda1 + (n**2 * consts.h0**2 + 4.0 * consts.c0) / (4.0 * dlt)
    fac = 1.0 + 4.0 * dlt / (n * eps)
    if inner <= 0.0:
        raise NonpositiveRadicand(f"curvature radicand {inner} <= 0")
    if last <= 0.0:
        raise NonpositiveRadicand(f"shifted lambda1 factor {last} <= 0")
    value = 4.0 / math.sqrt(consts.sigma) * math.sqrt(inner) * math.sqrt(fac) * math.sqrt(last)
    return value, {
        "lambda1": lambda1, "inner": inner, "last": last, "factor": fac, "a_nT": a, "d": d, "d_is_grid_approximation": True
    }


def theorem13_constant(lambda1: float, consts: OperatorConstants) -> GapConstant:
    """Pinched-curvature gap constant with radial drift and distance terms."""
    return _gap_constant("thm13", _theorem13, lambda1, consts, ("cheng_yau", "drifted_laplacian", "laplacian"))


# the gap-constant builder of each bound family a config can name
THEOREMS = {"thm11": theorem11_constant, "thm12": theorem12_constant, "thm13": theorem13_constant}


# ---------------------------------------------------------------------------
# growth bound
# ---------------------------------------------------------------------------


def _eigs(spectrum) -> np.ndarray:
    if isinstance(spectrum, SpectrumResult):
        return np.asarray(spectrum.eigenvalues, dtype=float)
    return np.asarray(spectrum, dtype=float)


def yang_check(spectrum, consts: OperatorConstants) -> list:
    """Shifted growth bound: ups_{k+1} <= (1 + 4d/(ne)) k^(2d/(ne)) ups_1, one "growth" row per k."""
    lam = _eigs(spectrum)
    if lam.size < 2:
        raise InsufficientSpectrum("growth check needs at least two eigenvalues")
    n, eps, dlt = consts.n, consts.epsilon, consts.delta
    shift = (n**2 * consts.h0**2 + 4.0 * consts.c0 + consts.t0**2) / (4.0 * dlt)
    ups = lam + shift
    if ups[0] <= 0.0:
        raise NonpositiveUpsilon(f"upsilon_1 = {ups[0]} <= 0")
    fac = 1.0 + 4.0 * dlt / (n * eps)
    expo = 2.0 * dlt / (n * eps)
    rows = []
    for k in range(1, lam.size):
        claims = (("growth", float(ups[k]), float(fac * k**expo * ups[0])),)
        rows.append(VerdictRow(k, verdict(claims), claims))
    return rows


# ---------------------------------------------------------------------------
# consecutive-gap verification
# ---------------------------------------------------------------------------


# the CSV header and JSON row keys of a gap row, in the order of _gap_columns
GAP_COLUMNS = ("k", "lambda_k", "lambda_k1", "gap", "bound", "margin", "status", "error_estimate")


def _gap_columns(row: VerdictRow) -> tuple:
    (_claim, gap, bound), x = row.claims[0], row.extra
    return row.k, x["lambda_k"], x["lambda_k1"], gap, bound, bound - gap, row.status, x["error_estimate"]


@dataclass
class GapReport:
    tag: str
    constant: float
    exponent: float
    rows: list
    constants_used: dict
    corollaries: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def counts(self) -> dict:
        return tally(self.rows, dict.fromkeys(("pass", "fail", "inconclusive", "info"), 0))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(GAP_COLUMNS)
            for r in self.rows:
                writer.writerow([v if isinstance(v, (int, str)) else repr(v) for v in _gap_columns(r)])

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tag": self.tag,
            "constant": self.constant,
            "exponent": self.exponent,
            "constants_used": self.constants_used,
            "corollaries": self.corollaries,
            "notes": self.notes,
            "counts": self.counts(),
            "rows": [dict(zip(GAP_COLUMNS, _gap_columns(r))) for r in self.rows],
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def gap_check(
    spectrum,
    constant: float,
    exponent: float,
    k_range: tuple | None = None,
    tag: str = "gap",
    h: float | None = None,
    constants_used: dict | None = None,
    corollaries: dict | None = None,
) -> GapReport:
    """Check lambda_{k+1} - lambda_k <= C k^exponent for k in k_range.

    Gaps inside a numerical multiplet count as zero.  When a violation is
    within 3x the estimated numerical error (FEM rate lambda^2 h^2 plus
    eigensolver residuals) the row is flagged inconclusive, not failed.
    The k = 1 row is informational only.  Each row claims "gap" <= bound.
    """
    lam = _eigs(spectrum)
    residuals = spectrum.residuals if isinstance(spectrum, SpectrumResult) else None
    if not 0.0 < constant < math.inf:
        raise ValueError(f"bound constant must be finite and positive, got {constant}")
    klo, khi = (2, lam.size - 1) if k_range is None else (int(k_range[0]), int(k_range[1]))
    if not 2 <= klo <= khi:
        raise ValueError(f"k_range needs 2 <= lo <= hi (k = 1 is info only), got ({klo}, {khi})")
    if khi + 1 > lam.size:
        raise InsufficientSpectrum(f"need lambda_{khi + 1}, have {lam.size} eigenvalues")

    labels = multiplet_labels(lam)
    rows = []
    for k in range(1, khi + 1):
        gap = 0.0 if labels[k] == labels[k - 1] else float(lam[k] - lam[k - 1])
        bound = constant * k**exponent
        err = 0.0
        if h is not None:
            err += (lam[k] ** 2 + lam[k - 1] ** 2) * h**2
        if residuals is not None:
            err += float(residuals[k]) + float(residuals[k - 1])
        if k < klo:
            status = "info"
        elif holds(gap, bound):
            status = "pass"
        elif gap - bound <= 3.0 * err:
            status = "inconclusive"
        else:
            status = "fail"
        extra = {"lambda_k": float(lam[k - 1]), "lambda_k1": float(lam[k]), "error_estimate": float(err)}
        rows.append(VerdictRow(k, status, (("gap", gap, bound),), extra=extra))
    notes = {"k_range": [klo, khi], "pass_rel_tol": PASS_REL_TOL, "h": h}
    return GapReport(tag, constant, exponent, rows, constants_used or {}, corollaries or {}, notes)


# ---------------------------------------------------------------------------
# test-function inequalities
# ---------------------------------------------------------------------------


def _rows(lam: np.ndarray, j: int, count: int):
    """(k, l_{k+1}, l_{k+2}, skip reason) for k = 1..count: the row rule of cor32 and lemma32.

    A row is admissible, with an empty reason, only when l_{k+1} and
    l_{k+2} lie in different multiplets and l_j lies strictly below the
    multiplet of l_{k+1}.
    """
    labels = multiplet_labels(lam)
    for k in range(1, count + 1):
        if labels[k] == labels[k + 1]:
            reason = "degenerate gap"
        elif not labels[j - 1] < labels[k]:  # labels ascend with lambda
            reason = "lambda_j >= lambda_{k+1}"
        else:
            reason = ""
        yield k, float(lam[k]), float(lam[k + 1]), reason


def cor32_reader(spectrum: SpectrumResult, pair: assembly.OperatorPair, test_fns: dict, j: int = 1) -> assembly.Reader:
    """The reader (``assembly.gauss_pass``) of R_j = u_j^T A u_j, key "R", and I1, I2, I3, keys (label, 0, 1 or 2).

    R_j sums <T grad u_j, grad u_j>_g at the Gauss points, as A does, free of the cancellation in A u_j.
    A structurally zero L f or grad(L f) has no I2 or I3.  A chunk where |grad f|_g deviates from 1 by
    more than 1e-10 raises UnitGradientViolation, for the first such label.
    """

    def terms(sample, uj, grad_uj, t_guj, _modes):
        pts, dm, grad_factor = sample.pts, sample.dm, sample.grad_factor
        out = {"R": grad_factor * np.einsum("qa,qa->q", t_guj, grad_uj) * dm}
        for label, test_fn in test_fns.items():
            gf = test_fn.f.grad(pts)
            some = slice(1) if gf.strides[0] == 0 and np.ndim(grad_factor) == 0 else slice(None)  # rho = 1, one row
            defect = np.max(np.abs(gradient_norm(pair.domain.metric, pts[some], gf[some]) - 1.0))
            if defect > 1e-10:
                raise UnitGradientViolation(f"{label}: |grad f|_g deviates from 1 by {float(defect):.3e}")
            i1 = np.einsum("qa,qa->q", t_guj, gf)
            if np.ndim(grad_factor):  # else rho = 1
                i1 *= grad_factor
            np.square(i1, out=i1)
            i1 *= dm
            out[label, 0] = i1
            lf, glf = test_fn.lf_and_grad(sample)
            if lf is not None:
                out[label, 1] = lf**2 * uj**2 * dm
            if glf is not None:
                out[label, 2] = grad_factor * np.einsum("qa,qa->q", glf, sample.apply_T(gf)) * uj**2 * dm
        return out

    return assembly.Reader((spectrum.eigenvectors[:, j - 1],), terms)


def cor32_check(
    spectrum: SpectrumResult,
    pair: assembly.OperatorPair,
    test_fns: dict,
    consts: OperatorConstants,
    j: int = 1,
    reader: assembly.Reader | None = None,
) -> list:
    """Gap-squared and gap bounds from unit-gradient test functions, one list of labelled rows.

    ``test_fns`` maps a label to an ``OperatorTestFunction`` f.  For each f
    in turn and every row k that ``_rows`` admits, evaluates

      (l_{k+2}-l_{k+1})^2 <= 16/s (I1 - I2/4 - I3/2) l_{k+2}         (3.14)
      l_{k+2}-l_{k+1} <= 4/sqrt(s) (d l_j - I2/4 - I3/2)^0.5 l_{k+2}^0.5   (3.15)

    with I1 = int <T grad u_j, grad f>^2 dm, I2 = int (Lf)^2 u_j^2 dm and
    I3 = int <grad(Lf), T grad f> u_j^2 dm, the sums of ``reader`` (this
    call's ``cor32_reader``, read by a shared pass) or of a pass of its own.
    Each row, labelled in ``extra["test_function"]``, claims "3.14", "3.15"
    and "link", I1 <= delta R_j, and passes when all three hold; link is
    Cauchy-Schwarz at each Gauss point, and R_j = u_j^T A u_j = l_j up to
    solver error.  The pipeline's f are fields.axis_test_function,
    df = e_a / rho, with closed-form L f and grad(L f).
    """
    lam = spectrum.eigenvalues
    sig, lam_j = consts.sigma, float(lam[j - 1])
    rows = []
    sums = (reader or cor32_reader(spectrum, pair, test_fns, j)).result(pair)
    for label in test_fns:
        i1, i2, i3 = (sums.get((label, t), 0.0) for t in range(3))
        link = ("link", i1, consts.delta * sums["R"])
        bracket_314 = i1 - 0.25 * i2 - 0.5 * i3
        bracket_315 = consts.delta * lam_j - 0.25 * i2 - 0.5 * i3
        for k, l_k1, l_k2, reason in _rows(lam, j, lam.size - 2):
            if reason:
                rows.append(VerdictRow(k, "skipped", reason=reason, extra={"test_function": label}))
                continue
            rhs_315 = math.nan
            if bracket_315 > 0.0:
                rhs_315 = 4.0 / math.sqrt(sig) * math.sqrt(bracket_315) * math.sqrt(l_k2)
            claims = (
                ("3.14", (l_k2 - l_k1) ** 2, 16.0 / sig * bracket_314 * l_k2),
                ("3.15", l_k2 - l_k1, rhs_315),
                link,
            )
            rows.append(VerdictRow(k, verdict(claims), claims, extra={"test_function": label}))
    return rows


LEMMA32_ROWS = 8  # rows k = 1..8 at most, as far as the spectrum reaches lambda_{k+2}


def _lemma32_rows(lam: np.ndarray, j: int) -> tuple:
    """The rows of ``_rows`` up to k = 8, and the indices of the multiplet of l_{k+1} of each admissible row k."""
    labels = multiplet_labels(lam)
    rows_k = list(_rows(lam, j, min(LEMMA32_ROWS, lam.size - 2)))
    return rows_k, {k: np.flatnonzero(labels == labels[k]) for k, _, _, reason in rows_k if not reason}


def lemma32_reader(spectrum: SpectrumResult, pair: assembly.OperatorPair, g: ScalarField, j: int = 1) -> assembly.Reader:
    """The reader (``assembly.gauss_pass``) of u_j and each multiplet member u_i that an admissible row reads.

    Its sums: int |grad g|_T^2 u_j^2 dm "igg", int (2 <T grad u_j, grad g>
    + u_j L g)^2 dm "ib", int g^2 u_j^2 dm "igu", int g u_j u_i dm keyed i.
    """
    read = sorted(set().union(*_lemma32_rows(spectrum.eigenvalues, j)[1].values()))

    def terms(sample, uj, _grad_uj, t_guj, modes):
        pts, dm, grad_factor = sample.pts, sample.dm, sample.grad_factor
        gg = g.grad(pts)
        igg = grad_factor * np.einsum("qa,qa->q", gg, sample.apply_T(gg)) * uj**2 * dm
        ib = (2.0 * (grad_factor * np.einsum("qa,qa->q", t_guj, gg)) + uj * apply_operator_L(sample, g)) ** 2 * dm
        guj = g.value(pts) * uj
        return {"igg": igg, "ib": ib, "igu": np.square(guj) * dm, **{i: guj * u * dm for i, u in zip(read, modes)}}

    return assembly.Reader((spectrum.eigenvectors[:, j - 1], *(spectrum.eigenvectors[:, i] for i in read)), terms)


def lemma32_check(
    spectrum: SpectrumResult,
    pair: assembly.OperatorPair,
    g: ScalarField,
    j: int = 1,
    reader: assembly.Reader | None = None,
) -> list:
    """Real-test-function inequality, one row per k = 1..min(8, K - 2) for K eigenpairs.

      (l_{k+1}-l_j + l_{k+2}-l_j) int |grad g|_T^2 u_j^2 dm
          <= int (2 <T grad u_j, grad g> + u_j L g)^2 dm
             + (l_{k+2}-l_j)(l_{k+1}-l_j) int g^2 u_j^2 dm

    with the sums of ``reader`` (this call's ``lemma32_reader``, read by a
    shared pass) or of a pass of its own.  Row k reads only l_j, l_{k+1},
    l_{k+2}, u_j, u_1..u_{k+1}, so any spectrum that reaches l_{k+2} serves.
    Besides the rows ``_rows`` skips, a row is skipped unless the cross term
    exceeds 1e-10 ||g u_j|| and g u_j lies outside the span of u_1..u_{k+1}
    (nodal B-projection residual above 1e-8 ||g u_j||_B); both thresholds
    scale with g, as the inequality does.  The cross term is the norm
    sqrt(sum_i (int g u_j u_i dm)^2) over the multiplet of l_{k+1}, which no
    choice of basis or signs in that eigenspace changes.  A row claims
    "lemma32" and carries ``cross_term`` and ``projection_residual`` in
    ``extra``; a row skipped on these two keeps its claim.
    """
    lam = spectrum.eigenvalues
    rows_k, members = _lemma32_rows(lam, j)
    sums = (reader or lemma32_reader(spectrum, pair, g, j)).result(pair)

    # the span check runs on the nodal product vector, in the B inner product
    w = assembly.project_function(pair.domain, g) * spectrum.eigenvectors[:, j - 1]
    bw = pair.B @ w
    w_norm = math.sqrt(max(float(w @ bw), 0.0))

    lam_j = float(lam[j - 1])
    rows = []
    for k, l_k1, l_k2, reason in rows_k:
        if reason:
            rows.append(VerdictRow(k, "skipped", reason=reason))
            continue
        # the norm of g u_j's projection onto the whole multiplet of l_{k+1}, whatever its basis
        cross = math.hypot(*(sums[i] for i in members[k]))
        basis = spectrum.eigenvectors[:, : k + 1]
        resid_vec = w - basis @ (basis.T @ bw)
        resid = float(np.sqrt(max(resid_vec @ (pair.B @ resid_vec), 0.0)))
        lhs = ((l_k1 - lam_j) + (l_k2 - lam_j)) * sums["igg"]
        claims = (("lemma32", lhs, sums["ib"] + (l_k2 - lam_j) * (l_k1 - lam_j) * sums["igu"]),)
        if cross <= 1e-10 * math.sqrt(sums["igu"]):
            reason = "cross term int g u_j u_{k+1} dm vanishes"
        elif resid <= 1e-8 * w_norm:
            reason = "g u_j lies in the span of u_1..u_{k+1}"
        extra = {"cross_term": cross, "projection_residual": resid}
        rows.append(VerdictRow(k, "skipped" if reason else verdict(claims), claims, reason, extra))
    return rows
