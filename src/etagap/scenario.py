"""Declarative experiment configs and the end-to-end verification pipeline.

A scenario binds a metric, a masked box domain, coefficient presets,
solver settings, and the list of checks to run.  Configs are JSON with
every real number written as a decimal string (locale-proof); resolutions
and counts are plain integers.  Builtin scenarios ship with the package,
one per bound family, so the acceptance story is "run all builtins".
"""

from __future__ import annotations

import copy
import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import assembly, bounds, fields, geometry, spectral
from .errors import ConfigError, EtagapError

CHECK_NAMES = ("gap", "yang", "cor32", "lemma32", "parseval")


_num, _nums = fields.real, fields.reals


@contextmanager
def _config_errors():
    """Report a malformed config value as ConfigError, the CLI's exit code 3."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# the keys each config block may hold; a misspelled key exits 3 rather than leave its default in force
KNOWN_KEYS = {
    "config": ("name", "metric", "domain", "tensor", "drift", "solver", "bounds", "constants", "verify", "oracle", "output_dir"),
    "domain": ("bounds", "resolution", "mask"),
    "solver": ("k", "solve_tol", "ortho_tol", "method", "seed"),
    "bounds": ("theorems", "k_range", "c_scale"),
    "constants": ("H0", "kappa1", "kappa2", "origin"),
    "oracle": ("kind", "lengths", "coeffs", "drift_slope", "rtol"),
}


def _block(raw: dict, key: str, kind: type = dict, default=None):
    """raw[key] (or ``default`` when absent), which must be a JSON object or, for kind list, an array."""
    value = raw[key] if default is None else raw.get(key, default)
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be a JSON {'object' if kind is dict else 'array'}, got {value!r}")
    return value


@dataclass
class SolverSettings:
    k: int | str = 8
    solve_tol: float = spectral.DEFAULT_SOLVE_TOL
    ortho_tol: float = spectral.DEFAULT_ORTHO_TOL
    method: str = "auto"
    seed: int = 0


@dataclass
class ScenarioConfig:
    """Validated scenario description; see the README for the grammar."""

    name: str
    metric_tag: str
    dim: int
    box: list
    resolution: list
    mask: dict
    tensor: dict
    drift: dict
    solver: SolverSettings
    theorems: list
    k_range: list | None
    c_scale: float
    h0: float | None
    kappa1: float | None
    kappa2: float | None
    origin: list | None
    verify: list
    oracle: OracleSpectrum | None
    output_dir: str | None
    raw: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        """Parse and validate a raw config dict (kept as ``raw``)."""
        with _config_errors():
            domain, solver = _block(raw, "domain"), _block(raw, "solver", default={})
            bounds_raw, consts = _block(raw, "bounds", default={}), _block(raw, "constants", default={})
            oracle = None if raw.get("oracle") is None else _block(raw, "oracle")
            for where, block in zip(KNOWN_KEYS, (raw, domain, solver, bounds_raw, consts, oracle or {})):
                unknown = sorted(set(block) - set(KNOWN_KEYS[where]))
                if unknown:
                    raise ConfigError(f"unknown {where} key(s) {unknown}; known: {', '.join(KNOWN_KEYS[where])}")
            box = [(_num(lo), _num(hi)) for lo, hi in domain["bounds"]]
            k_range = bounds_raw.get("k_range")
            cfg = ScenarioConfig(
                name=raw["name"],
                metric_tag=raw["metric"],
                dim=len(box),
                box=box,
                resolution=list(domain["resolution"]),
                mask=_block(domain, "mask", default={"kind": "all"}),
                tensor=_block(raw, "tensor"),
                drift=_block(raw, "drift", default={"kind": "zero"}),
                solver=SolverSettings(
                    k=solver.get("k", 8),
                    solve_tol=_num(solver.get("solve_tol", spectral.DEFAULT_SOLVE_TOL)),
                    ortho_tol=_num(solver.get("ortho_tol", spectral.DEFAULT_ORTHO_TOL)),
                    method=solver.get("method", "auto"),
                    seed=solver.get("seed", 0),
                ),
                theorems=_block(bounds_raw, "theorems", list, default=[]),
                k_range=None if k_range is None else list(k_range),
                c_scale=_num(bounds_raw.get("c_scale", "1")),
                h0=_num(consts["H0"]) if "H0" in consts else None,
                kappa1=_num(consts["kappa1"]) if "kappa1" in consts else None,
                kappa2=_num(consts["kappa2"]) if "kappa2" in consts else None,
                origin=fields.axis_reals(consts["origin"], len(box), "origin") if "origin" in consts else None,
                verify=_block(raw, "verify", list, default=[]),
                oracle=None if oracle is None else OracleSpectrum.from_dict(oracle),
                output_dir=raw.get("output_dir"),
                raw=raw,
            )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.metric_tag not in ("euclidean", "hyperbolic"):
            raise ConfigError(f"metric must be euclidean|hyperbolic, got {self.metric_tag!r}")
        if len(self.resolution) != self.dim:
            raise ConfigError("resolution length must match bounds")
        # type() is int, not int(): int() truncates 16.7 and accepts "16"; bool is an int subclass
        if not all(type(r) is int for r in self.resolution):
            raise ConfigError(f"resolution must be integers, got {self.resolution}")
        if self.solver.k != "full" and not (type(self.solver.k) is int and self.solver.k >= 1):
            raise ConfigError(f"solver k must be 'full' or an integer >= 1, got {self.solver.k!r}")
        if type(self.solver.seed) is not int or self.solver.seed < 0:
            raise ConfigError(f"solver seed must be an integer >= 0, got {self.solver.seed!r}")
        if self.solver.method not in spectral.METHODS:
            raise ConfigError(f"solver method must be {'|'.join(spectral.METHODS)}, got {self.solver.method!r}")
        for name, value in (("solve_tol", self.solver.solve_tol), ("ortho_tol", self.solver.ortho_tol), ("c_scale", self.c_scale)):
            if not 0.0 < value < math.inf:  # also refuses nan
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        for tag in self.theorems:
            if tag not in bounds.THEOREMS:
                raise ConfigError(f"unknown bound family {tag!r}")
        for chk in self.verify:
            if chk not in CHECK_NAMES:
                raise ConfigError(f"unknown verification {chk!r}")
        kr = self.k_range
        if kr is not None and not (len(kr) == 2 and all(type(k) is int for k in kr) and 2 <= kr[0] <= kr[1]):
            raise ConfigError(f"k_range must be two integers 2 <= lo <= hi, got {kr}")
        if self.h0 is not None and not self.h0 >= 0.0:
            raise ConfigError(f"H0 bounds a norm and must be >= 0, got {self.h0}")
        pins = [k for k in (self.kappa1, self.kappa2) if k is not None]
        if not all(k >= 0.0 for k in pins):
            raise ConfigError(f"curvature pins must be >= 0, got {pins}")
        if len(pins) == 2 and self.kappa2 > self.kappa1:
            raise ConfigError(f"need kappa2 <= kappa1, got kappa1={self.kappa1}, kappa2={self.kappa2}")
        if self.oracle is not None:
            if self.oracle.kind in ("interval", "drifted_interval") and self.dim != 1:
                raise ConfigError(f"{self.oracle.kind} oracle needs a 1-D domain, got {self.dim}-D")
            for name, given in (("lengths", self.oracle.lengths), ("coeffs", self.oracle.coeffs)):
                if given and len(given) != self.dim:
                    raise ConfigError(f"oracle {name} needs {self.dim} entries, got {len(given)}")
                if not all(0.0 < v < math.inf for v in given):
                    raise ConfigError(f"oracle {name} must be finite and > 0, got {list(given)}")
            if self.oracle.rtol is not None and not 0.0 <= self.oracle.rtol < math.inf:
                raise ConfigError(f"oracle rtol must be finite and >= 0, got {self.oracle.rtol}")
        euclid = self.metric_tag == "euclidean"
        if euclid:
            if self.h0 not in (None, 0.0):
                raise ConfigError("Euclidean scenarios force H0 = 0")
            for tag in ("thm12", "thm13"):
                if tag in self.theorems:
                    raise ConfigError(f"{tag} requires the hyperbolic metric")
            if self.theorems == ["thm11"] and (
                self.kappa1 is not None or self.kappa2 is not None or self.origin is not None
            ):
                raise ConfigError("thm11 scenarios take no curvature/origin inputs")
        else:
            if "thm11" in self.theorems:
                raise ConfigError("thm11 requires the Euclidean metric")
            # the pinching -kappa1^2 <= K <= -kappa2^2 must hold for K = -1
            if pins and not max(pins) >= 1.0 >= min(pins):
                raise ConfigError(
                    f"curvature pins {pins} do not bracket the half-space curvature -1 "
                    "(need kappa2 <= 1 <= kappa1)"
                )
            needs_h0 = any(t in self.theorems for t in ("thm12", "thm13"))
            if needs_h0 and self.h0 is None:
                raise ConfigError("hyperbolic bound families need the H0 config input")
            if "thm13" in self.theorems:
                if self.origin is None:
                    raise ConfigError("thm13 needs an origin outside the closed domain")
                if self.kappa1 is None or self.kappa2 is None:
                    raise ConfigError("thm13 needs kappa1 and kappa2")
                if self.tensor.get("kind") != "identity":
                    raise ConfigError(
                        "thm13 requires a radially parallel tensor; only identity presets qualify"
                    )


# CLI override -> (section, key) of the raw config it replaces
_OVERRIDES = {
    "resolution": ("domain", "resolution"),
    "k": ("solver", "k"),
    "solve_tol": ("solver", "solve_tol"),
    "ortho_tol": ("solver", "ortho_tol"),
    "seed": ("solver", "seed"),
    "method": ("solver", "method"),
    "verify": (None, "verify"),
}


def apply_overrides(cfg: ScenarioConfig, overrides: dict | None) -> ScenarioConfig:
    """A new config: the CLI-allowed overrides merged into the raw dict, parsed again."""
    overrides = {key: val for key, val in (overrides or {}).items() if val is not None}
    if not overrides:
        return cfg
    raw = copy.deepcopy(cfg.raw)
    for key, val in overrides.items():
        if key not in _OVERRIDES:
            raise ConfigError(f"override {key!r} not permitted")
        if key == "resolution":
            val = list(val) if isinstance(val, (list, tuple)) else [val]
            if len(val) == 1:
                val = val * cfg.dim
            if len(val) != cfg.dim:
                raise ConfigError("resolution override length mismatch")
        section, name = _OVERRIDES[key]
        (raw.setdefault(section, {}) if section else raw)[name] = val
    return ScenarioConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# construction from config
# ---------------------------------------------------------------------------


def _mask_rule(mask: dict, dim: int):
    kind = mask.get("kind", "all")
    if kind == "all":
        return None
    if kind == "ball":
        center = np.asarray(fields.axis_reals(mask["center"], dim, "ball mask center"))
        radius = _num(mask["radius"])

        def rule(centers):
            return np.linalg.norm(centers - center[None, :], axis=1) <= radius

        return rule
    if kind == "box":
        lo = np.asarray(fields.axis_reals(mask["lo"], dim, "box mask lo"))
        hi = np.asarray(fields.axis_reals(mask["hi"], dim, "box mask hi"))

        def rule(centers):
            return np.all((centers >= lo[None, :]) & (centers <= hi[None, :]), axis=1)

        return rule
    raise ConfigError(f"unknown mask kind {kind!r}")


def _preset(build, spec: dict, dim: int, default_kind=None):
    """A field from a config spec {"kind": ..., params}; fields parses the params."""
    params = dict(spec)
    return build(params.pop("kind", default_kind), dim, **params)


# ---------------------------------------------------------------------------
# oracle spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSpectrum:
    """Closed-form eigenvalue generators for separable references, and the rtol that scores them."""

    kind: str
    lengths: tuple = ()
    coeffs: tuple = ()
    drift_slope: float = 0.0
    rtol: float | None = None  # without it the error is reported and scored nowhere

    @staticmethod
    def from_dict(raw: dict) -> "OracleSpectrum":
        with _config_errors():
            kind = raw["kind"]
            if kind not in ("interval", "box", "anisotropic", "drifted_interval"):
                raise ConfigError(f"unknown oracle kind {kind!r}")
            lengths = tuple(_nums(raw.get("lengths", [])))
            coeffs = tuple(_nums(raw.get("coeffs", [])))
            slope = _num(raw.get("drift_slope", "0"))
            rtol = _num(raw["rtol"]) if "rtol" in raw else None
        return OracleSpectrum(kind, lengths, coeffs, slope, rtol)


def oracle_eigenvalues(oracle: OracleSpectrum, k: int, dim: int) -> np.ndarray:
    """First k closed-form eigenvalues in dim dimensions, ascending with multiplicity.

    Every kind is sum_a c_a ((g_a pi / L_a)^2 + s_a^2 / 4) over the mode
    numbers g_a >= 1, for T = diag(c) and the drift slope s on axis 0 only
    (u = e^(s x_0 / 2) v turns that drift into a shift of s^2 / 4 before
    c_0 scales both terms).  Lengths default to pi and coefficients to 1.
    The k smallest sums need modes 1..k of each axis; the axes are added
    one at a time, keeping the k smallest partial sums, so at most k^2
    sums are held whatever the dimension.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lengths = oracle.lengths or (np.pi,) * dim
    coeffs = oracle.coeffs or (1.0,) * dim
    modes = np.arange(1, k + 1)
    lam = np.zeros(1)
    for a, (c, length) in enumerate(zip(coeffs, lengths)):
        slope = oracle.drift_slope if a == 0 else 0.0
        lam = np.sort(np.add.outer(lam, c * ((modes * np.pi / length) ** 2 + slope**2 / 4.0)), axis=None)[:k]
    return lam


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class ScenarioReport:
    """Everything a scenario run produced, plus aggregated counts.

    ``rows`` maps the name of each check that ran (``checks``) to its rows;
    a check that raised has one line in ``errors`` instead.
    """

    name: str
    config: ScenarioConfig
    spectrum: spectral.SpectrumResult
    validation: spectral.ValidationReport
    constants: fields.OperatorConstants | None
    gap_reports: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    elapsed: float = 0.0
    written: list = field(default_factory=list)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "inconclusive": 0, "info": 0, "skipped": 0, "errors": len(self.errors)}
        for ok, _margin in self.validation.checks.values():
            out["pass" if ok else "fail"] += 1
        return bounds.tally((row for rows in self.rows.values() for row in rows), out)

    def exit_code(self) -> int:
        c = self.counts()
        if c["fail"] > 0 or c["errors"] > 0:
            return 1
        if c["inconclusive"] > 0:
            return 2
        return 0

    def summary_dict(self) -> dict:
        parseval, oracle = self.rows.get("parseval"), self.rows.get("oracle")
        oracle_err = oracle[0].claims[0][1] if oracle else None
        if self.config.oracle is not None and self.config.oracle.rtol is None:  # reported, never scored
            oracle_err = oracle_error(self.config, self.spectrum)
        return {
            "schema_version": bounds.SCHEMA_VERSION,
            "name": self.name,
            "counts": self.counts(),
            "exit_code": self.exit_code(),
            "validation": {k: [bool(v[0]), float(v[1])] for k, v in self.validation.checks.items()},
            "eigenvalues": [float(v) for v in self.spectrum.eigenvalues],
            "oracle_error": oracle_err,
            "parseval_defect": parseval[0].extra["defect"] if parseval else None,
            "errors": self.errors,
            "gap_reports": {tag: rep.to_json_dict() for tag, rep in self.gap_reports.items()},
            "solver": self.spectrum.meta,
            "elapsed_seconds": self.elapsed,
        }


def build_problem(cfg: ScenarioConfig):
    """Metric, domain, tensor and drift objects for a validated config."""
    hyperbolic = cfg.metric_tag == "hyperbolic"
    with _config_errors():
        metric = (geometry.hyperbolic_half_plane if hyperbolic else geometry.euclidean)(cfg.dim)
        domain = geometry.make_box_domain(cfg.box, cfg.resolution, metric, _mask_rule(cfg.mask, cfg.dim))
        tensor = _preset(fields.tensor_preset, cfg.tensor, cfg.dim)
        drift = _preset(fields.drift_preset, cfg.drift, cfg.dim, default_kind="zero")
    if "thm12" in cfg.theorems or "thm13" in cfg.theorems:  # validate keeps them on the half-space
        fields.validate_radially_constant(drift.value, domain)
        fields.validate_radially_constant(
            lambda p: tensor.matrix(p).reshape(p.shape[0], -1), domain
        )
        # T must send the vertical direction to a multiple of itself
        pts = domain.quadrature()[0][:16]
        theta = tensor.matrix(pts)
        off = np.abs(theta[:, :-1, -1])
        if np.max(off) > 1e-12:
            raise ConfigError("hyperbolic bound families need T(d_n) parallel to d_n")
    return metric, domain, tensor, drift


def collect_constants(cfg, pair: assembly.OperatorPair) -> fields.OperatorConstants:
    """The bound constants, from the quadrature sample the pair was assembled on."""
    domain, sample = pair.domain, pair.sample
    metric = domain.metric
    t0 = fields.compute_T0(sample)
    c0 = fields.compute_C0(sample)
    prov = {"epsilon": "computed", "delta": "computed", "t0": "computed", "c0": "computed"}
    kwargs = {"n": metric.dim, "epsilon": pair.epsilon, "delta": pair.delta, "t0": t0, "c0": c0}
    if metric.is_hyperbolic:
        kwargs["h0"] = cfg.h0 if cfg.h0 is not None else 0.0
        prov["h0"] = "config"
        if cfg.kappa1 is not None:
            kwargs["kappa1"] = cfg.kappa1
            kwargs["kappa2"] = cfg.kappa2 if cfg.kappa2 is not None else cfg.kappa1
            prov["kappa1"] = prov["kappa2"] = "config"
        if cfg.origin is not None:
            origin = np.array(cfg.origin)
            kwargs["d"] = geometry.domain_origin_distance(domain, origin)
            prov["d"] = "computed (grid approximation from above)"
            eta1, eta_r = fields.compute_eta_radial_constants(sample, origin)
            kwargs["eta1"], kwargs["eta_r"] = eta1, eta_r
            prov["eta1"] = prov["eta_r"] = "computed"
    else:
        kwargs["h0"] = 0.0
        prov["h0"] = "forced 0 (Euclidean)"
    return fields.OperatorConstants(provenance=prov, **kwargs)


def lemma32_test_function(n: int) -> fields.ScalarField:
    """The lemma32 g: x1 x2 + x1 + phi x2 (phi = (sqrt 5 - 1)/2), with none of the box's symmetries; x1 on a line."""
    if n == 1:
        return fields.AffineScalar([1.0])
    quad, coeffs = np.zeros((n, n)), np.zeros(n)
    quad[0, 1] = quad[1, 0] = 1.0
    coeffs[:2] = 1.0, (np.sqrt(5.0) - 1.0) / 2.0
    return fields.QuadraticScalar(quad, coeffs)


# The check registry.  An entry(cfg, pair, spectrum, consts) returns rows, or a GapReport holding
# them, and looks its bounds or spectral callee up through the module when it runs.


def _gap(tag, cfg, pair, spectrum, consts) -> bounds.GapReport:
    lam1 = float(spectrum.eigenvalues[0])
    gc = bounds.THEOREMS[tag](lam1, consts)
    used = {**asdict(consts), "sigma": consts.sigma, "d": consts.d if consts.d != math.inf else "inf", "lambda1": lam1}
    rep = bounds.gap_check(
        spectrum,
        gc.value * cfg.c_scale,
        gc.exponent,
        k_range=cfg.k_range,
        tag=tag,
        h=max(pair.domain.h),
        constants_used=used,
        corollaries=gc.corollaries,
    )
    if cfg.c_scale != 1.0:
        rep.notes["c_scale"] = cfg.c_scale
    return rep


def _cor32(cfg, pair, spectrum, consts) -> list:
    metric = pair.domain.metric
    if metric.is_hyperbolic:  # ln x_n on the half-space, x_a in Euclidean space
        test_fns = {"ln_xn": fields.axis_test_function(metric, metric.dim - 1)}
    else:
        test_fns = {f"x{a + 1}": fields.axis_test_function(metric, a) for a in range(metric.dim)}
    return bounds.cor32_check(spectrum, pair, test_fns, consts, j=1)


def _parseval(cfg, pair, spectrum, consts) -> list:
    """Bessel's inequality for f = x_1: the captured share 1 - defect is at most 1."""
    f_vec = assembly.project_function(pair.domain, fields.AffineScalar(np.eye(cfg.dim)[0]))
    defect = spectral.parseval_defect(spectrum, pair, f_vec)
    claims = (("bessel", 1.0 - defect, 1.0),)
    return [bounds.VerdictRow(spectrum.k, bounds.verdict(claims), claims, extra={"defect": defect})]


def oracle_error(cfg: ScenarioConfig, spectrum: spectral.SpectrumResult) -> float:
    """The largest relative error of the computed eigenvalues against the config's closed form."""
    ref = oracle_eigenvalues(cfg.oracle, spectrum.k, cfg.dim)
    return float(np.max(np.abs(spectrum.eigenvalues - ref) / np.abs(ref)))


def _oracle(cfg, pair, spectrum, consts) -> list:
    """error <= rtol, compared as is rather than through bounds.holds."""
    err, rtol = oracle_error(cfg, spectrum), cfg.oracle.rtol
    return [bounds.VerdictRow(spectrum.k, "pass" if err <= rtol else "fail", (("oracle", err, rtol),))]


# the checks after the gap entries, in report order
CHECKS = {
    "yang": lambda cfg, pair, spectrum, consts: bounds.yang_check(spectrum, consts),
    "cor32": _cor32,
    "lemma32": lambda cfg, pair, spectrum, consts: bounds.lemma32_check(spectrum, pair, lemma32_test_function(cfg.dim)),
    "parseval": _parseval,
}


def checks(cfg: ScenarioConfig) -> list:
    """(name, entry) of each selected check in report order, whatever the order of ``verify``: one gap
    entry per theorem tag, named by the tag, then yang, cor32, lemma32, parseval, and the oracle when it sets rtol."""
    entries = [(tag, functools.partial(_gap, tag)) for tag in cfg.theorems] if "gap" in cfg.verify else []
    entries += [(name, entry) for name, entry in CHECKS.items() if name in cfg.verify]
    return entries + ([("oracle", _oracle)] if cfg.oracle is not None and cfg.oracle.rtol is not None else [])


def run_scenario(
    cfg: ScenarioConfig,
    output_dir: str | None = None,
    write: bool = True,
) -> ScenarioReport:
    """Assemble, solve, validate, run the selected checks, write reports."""
    t_start = time.perf_counter()
    _metric, domain, tensor, drift = build_problem(cfg)
    pair = assembly.assemble(domain, tensor, drift)
    k = pair.ndof if cfg.solver.k == "full" else cfg.solver.k
    spectrum = spectral.solve_lowest(
        pair, k, solve_tol=cfg.solver.solve_tol, method=cfg.solver.method, seed=cfg.solver.seed
    )
    validation = spectral.validate_spectrum(spectrum, pair, ortho_tol=cfg.solver.ortho_tol)

    needs_constants = cfg.theorems or "yang" in cfg.verify or "cor32" in cfg.verify
    consts = collect_constants(cfg, pair) if needs_constants else None
    report = ScenarioReport(cfg.name, cfg, spectrum, validation, consts)

    for name, check in checks(cfg):
        try:
            result = check(cfg, pair, spectrum, consts)
        except (EtagapError, ValueError) as exc:
            report.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if isinstance(result, bounds.GapReport):
            report.gap_reports[name] = result
        report.rows[name] = getattr(result, "rows", result)

    report.elapsed = time.perf_counter() - t_start
    if write:
        out = Path(output_dir or cfg.output_dir or f"etagap_out/{cfg.name}")
        out.mkdir(parents=True, exist_ok=True)
        spath = out / "spectrum.csv"
        spectral.export_spectrum_csv(spectrum, spath)
        report.written.append(str(spath))
        for tag, rep in report.gap_reports.items():
            cpath, jpath = out / f"gap_{tag}.csv", out / f"gap_{tag}.json"
            rep.to_csv(cpath)
            rep.to_json(jpath)
            report.written += [str(cpath), str(jpath)]
        sumpath = out / "summary.json"
        with open(sumpath, "w", encoding="utf-8") as fh:
            json.dump(report.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        report.written.append(str(sumpath))
    return report


# ---------------------------------------------------------------------------
# builtin scenarios and config IO
# ---------------------------------------------------------------------------


def load_config(path_or_name) -> ScenarioConfig:
    """Load a config from a JSON file path or a builtin scenario name."""
    p = Path(path_or_name)
    if p.is_file():
        with open(p, encoding="utf-8") as fh:
            return ScenarioConfig.from_dict(json.load(fh))
    if str(path_or_name) in list_builtin_scenarios():
        return builtin_config(str(path_or_name))
    raise ConfigError(f"no config file or builtin scenario named {path_or_name!r}")


def list_builtin_scenarios() -> list:
    base = resources.files("etagap").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in base.iterdir() if p.name.endswith(".json"))


def builtin_config(name: str) -> ScenarioConfig:
    ref = resources.files("etagap").joinpath(f"scenarios/{name}.json")
    with ref.open(encoding="utf-8") as fh:
        return ScenarioConfig.from_dict(json.load(fh))
