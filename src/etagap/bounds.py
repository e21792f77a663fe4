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
    read off any computed low spectrum.

Every check returns rows of one shape, ``VerdictRow``: k, a ``status``,
the ``claims`` lhs <= rhs it rests on as (claim, lhs, rhs) triples, a
skip ``reason``, and the values it reports beside them in ``extra``.  A
row passes when every claim ``holds``; ``tally`` counts rows by status.
The k = 1 gap row is info, and a cor32 or lemma32 row outside the one
admissibility rule of ``_rows`` (lambda_{k+1} and lambda_{k+2} in
different multiplets, lambda_j strictly below the multiplet of
lambda_{k+1}) is skipped.  Checks never hide numerical error: a gap row
that exceeds its bound by less than three times the estimated
discretization error is ``inconclusive`` rather than ``fail``.
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


def _cor32_integrals(spectrum: SpectrumResult, pair: assembly.OperatorPair, test_fns: dict, j: int) -> dict:
    """(I1, I2, I3) of each test function, by label.

    Raises UnitGradientViolation, for the first label in order, where
    |grad f|_g deviates from 1 by more than 1e-10 at some point.

    u_j is read once, chunk by chunk (``assembly.at_quadrature``), for all
    test functions, and every quantity at the points is taken per chunk.
    Each integral is summed chunk by chunk with the bits of one ``np.sum``
    of its whole integrand (``assembly.pairwise_sums``).  A structurally zero
    L f or grad(L f) has no integrand and gives 0.
    """
    if not test_fns:
        return {}
    defects = dict.fromkeys(test_fns, 0.0)
    keys = []  # (label, 0, 1 or 2) of each integrand, I1, I2 or I3; I2 and I3 are absent where structurally zero

    def integrands():
        for sample, dm, grad_factor, (uj,), t_guj in assembly.at_quadrature(pair, spectrum.eigenvectors[:, j - 1]):
            pts = sample.pts
            t_guj[...] = sample.apply_T(t_guj)  # T grad u_j, over grad u_j
            terms = {}
            for label, test_fn in test_fns.items():
                gf = test_fn.f.grad(pts)
                some = slice(1) if gf.strides[0] == 0 and np.ndim(grad_factor) == 0 else slice(None)  # rho = 1, one row
                defect = np.max(np.abs(gradient_norm(pair.domain.metric, pts[some], gf[some]) - 1.0))
                defects[label] = np.maximum(defects[label], defect)  # a nan stays
                i1 = np.einsum("qa,qa->q", t_guj, gf)
                if np.ndim(grad_factor):  # else rho = 1
                    i1 *= grad_factor
                np.square(i1, out=i1)
                i1 *= dm
                terms[label, 0] = i1
                lf, glf = test_fn.lf_and_grad(sample)
                if lf is not None:
                    terms[label, 1] = lf**2 * uj**2 * dm
                if glf is not None:
                    terms[label, 2] = grad_factor * np.einsum("qa,qa->q", glf, sample.apply_T(gf)) * uj**2 * dm
            keys[:] = terms
            yield list(terms.values())

    sums = assembly.pairwise_sums(integrands(), pair.domain.n_cells * 2**pair.domain.dim)
    for label, defect in defects.items():
        if defect > 1e-10:
            raise UnitGradientViolation(f"{label}: |grad f|_g deviates from 1 by {float(defect):.3e}")
    totals = dict(zip(keys, sums))
    return {label: tuple(totals.get((label, t), 0.0) for t in range(3)) for label in test_fns}


def cor32_check(
    spectrum: SpectrumResult,
    pair: assembly.OperatorPair,
    test_fns: dict,
    consts: OperatorConstants,
    j: int = 1,
) -> list:
    """Gap-squared and gap bounds from unit-gradient test functions, one list of labelled rows.

    ``test_fns`` maps a label to an ``OperatorTestFunction`` f.  For each f
    in turn and every row k that ``_rows`` admits, evaluates

      (l_{k+2}-l_{k+1})^2 <= 16/s (I1 - I2/4 - I3/2) l_{k+2}         (3.14)
      l_{k+2}-l_{k+1} <= 4/sqrt(s) (d l_j - I2/4 - I3/2)^0.5 l_{k+2}^0.5   (3.15)

    with I1 = int <T grad u_j, grad f>^2 dm, I2 = int (Lf)^2 u_j^2 dm,
    I3 = int <grad(Lf), T grad f> u_j^2 dm, and returns a row per (f, k),
    label by label, with the label as its ``extra["test_function"]``.
    u_j is read once for all of them (``_cor32_integrals``).  A row claims "3.14",
    "3.15" and "link", I1 <= delta * lambda_j, which links the two, and
    passes when all three hold.  The pipeline's f are
    fields.axis_test_function, df = e_a / rho, whose L f and grad(L f)
    are closed-form; a structurally zero one contributes 0 to I2 or I3.
    """
    lam = spectrum.eigenvalues
    sig, lam_j = consts.sigma, float(lam[j - 1])
    rows = []
    for label, (i1, i2, i3) in _cor32_integrals(spectrum, pair, test_fns, j).items():
        link = ("link", i1, consts.delta * lam_j)
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


def _lemma32_integrals(pair: assembly.OperatorPair, uj_vec: np.ndarray, g: ScalarField, others) -> list:
    """int |grad g|_T^2 u_j^2 dm, int (2 <T grad u_j, grad g> + u_j L g)^2 dm and int g^2 u_j^2 dm,
    then the cross term int g u_j u dm of each DOF vector u in ``others``.

    u_j and the others are read in one pass, chunk by chunk
    (``assembly.at_quadrature``), every quantity at the points is taken
    per chunk, and each integral is summed as in ``_cor32_integrals``.
    """

    def integrands():
        for sample, dm, grad_factor, (uj, *modes), grad_uj in assembly.at_quadrature(pair, uj_vec, *others):
            pts = sample.pts
            gg = g.grad(pts)
            igg = grad_factor * np.einsum("qa,qa->q", gg, sample.apply_T(gg)) * uj**2 * dm
            cross_grad = grad_factor * np.einsum("qa,qa->q", sample.apply_T(grad_uj), gg)
            ib = (2.0 * cross_grad + uj * apply_operator_L(sample, g)) ** 2 * dm
            guj = g.value(pts) * uj
            yield [igg, ib, np.square(guj) * dm, *(guj * u * dm for u in modes)]

    return assembly.pairwise_sums(integrands(), pair.domain.n_cells * 2**pair.domain.dim)


def lemma32_check(
    spectrum: SpectrumResult,
    pair: assembly.OperatorPair,
    g: ScalarField,
    j: int = 1,
) -> list:
    """Real-test-function inequality, one row per k = 1..min(8, K - 2) for K eigenpairs.

      (l_{k+1}-l_j + l_{k+2}-l_j) int |grad g|_T^2 u_j^2 dm
          <= int (2 <T grad u_j, grad g> + u_j L g)^2 dm
             + (l_{k+2}-l_j)(l_{k+1}-l_j) int g^2 u_j^2 dm

    Row k reads only l_j, l_{k+1}, l_{k+2}, u_j, u_1..u_{k+1}, so any
    spectrum that reaches l_{k+2} serves.  Besides the rows ``_rows``
    skips, a row is skipped unless the cross term exceeds
    1e-10 ||g u_j|| and g u_j lies outside the span of u_1..u_{k+1} (nodal
    B-projection residual above 1e-8 ||g u_j||_B).  The cross term is the
    nonnegative norm sqrt(sum_i (int g u_j u_i dm)^2) over the multiplet
    of l_{k+1}: it does not depend on which orthonormal basis of that
    eigenspace, or which signs, the solver returned, where the single
    int g u_j u_{k+1} dm would.  Both thresholds scale with g, as both
    sides of the inequality do.  A row claims "lemma32" and carries its
    ``cross_term`` and ``projection_residual`` in ``extra``; a row
    skipped on these two keeps its claim.
    """
    lam = spectrum.eigenvalues
    labels = multiplet_labels(lam)
    rows_k = list(_rows(lam, j, min(LEMMA32_ROWS, lam.size - 2)))
    # the index of each admissible row's multiplet members; each eigenvector is read once, beside u_j
    members = {k: np.flatnonzero(labels == labels[k]) for k, _, _, reason in rows_k if not reason}
    read = sorted(set().union(*members.values()))
    igg, ib, igu, *cross_terms = _lemma32_integrals(
        pair, spectrum.eigenvectors[:, j - 1], g, [spectrum.eigenvectors[:, i] for i in read]
    )
    cross_of = dict(zip(read, cross_terms))

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
        cross = math.hypot(*(cross_of[i] for i in members[k]))
        basis = spectrum.eigenvectors[:, : k + 1]
        resid_vec = w - basis @ (basis.T @ bw)
        resid = float(np.sqrt(max(resid_vec @ (pair.B @ resid_vec), 0.0)))
        lhs = ((l_k1 - lam_j) + (l_k2 - lam_j)) * igg
        claims = (("lemma32", lhs, ib + (l_k2 - lam_j) * (l_k1 - lam_j) * igu),)
        if cross <= 1e-10 * math.sqrt(igu):
            reason = "cross term int g u_j u_{k+1} dm vanishes"
        elif resid <= 1e-8 * w_norm:
            reason = "g u_j lies in the span of u_1..u_{k+1}"
        extra = {"cross_term": cross, "projection_residual": resid}
        rows.append(VerdictRow(k, "skipped" if reason else verdict(claims), claims, reason, extra))
    return rows
