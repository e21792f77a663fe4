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
import numbers
import time
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import assembly, bounds, fields, geometry, spectral
from .errors import ConfigError, EtagapError

CHECK_NAMES = ("gap", "yang", "cor32", "lemma32", "parseval")


def _real(value) -> float:
    """A number (not a bool) or decimal string such as "1e-9" as a float; no config real is inf or nan."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise TypeError(value)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _array(item, kind=list):
    """The parser of a JSON array whose entries ``item`` parses, built as ``kind``."""

    def parse(values):
        if not isinstance(values, (list, tuple)):
            raise TypeError(values)
        return kind(map(item, values))

    return parse


def _flag_integer(text: str):
    """A flag's text as an int where it is one; other text stays, for the table to refuse."""
    try:
        return int(text)
    except ValueError:
        return text


def _flag_names(text: str):
    return [name.strip() for name in text.split(",") if name.strip()] if text else None


@dataclass(frozen=True)
class OracleSpectrum:
    """Closed-form eigenvalue generators for separable references, and the rtol that scores them."""

    kind: str
    lengths: tuple = ()
    coeffs: tuple = ()
    drift_slope: float = 0.0
    rtol: float | None = None  # without it the error is reported and scored nowhere


class Key(NamedTuple):
    """One config value: the parser of its JSON value (None: kept as given), its admissible range as
    (words, test of the parsed value or None), its parsed value when absent (``...``: it is required)
    and its CLI override flag."""

    parse: object
    range: tuple
    default: object = ...
    flag: tuple = ()  # (option, argparse keywords); the flag's dest is the key's name


# Admissible ranges, as (the words an error shows, a test of the parsed value or None for any).  An integer is
# tested by type(), not int(): int() truncates 16.7 and accepts "16", and bool is an int subclass.
STRING, OBJECT = ("a string", lambda v: type(v) is str), ("a JSON object", lambda v: type(v) is dict)
FINITE, REALS = ("a finite real", None), ("an array of finite reals", None)
POSITIVE, NONNEGATIVE = ("finite and > 0", lambda v: v > 0.0), ("finite and >= 0", lambda v: v >= 0.0)
POSITIVE_EACH = ("finite and > 0 each", lambda v: all(x > 0.0 for x in v))
SQUARE = ("a square array of rows of finite reals", lambda v: all(len(row) == len(v) for row in v))
PAIRS = ("one or more [lo, hi] pairs of finite reals, lo < hi", lambda v: v != [] and all(len(p) == 2 and p[0] < p[1] for p in v))
CELLS = (">= 2 per axis, each a JSON integer", lambda v: all(type(r) is int and r >= 2 for r in v))
EIGENPAIRS = ("'full' or an integer >= 1", lambda v: v == "full" or (type(v) is int and v >= 1))
NATURAL = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
GAP_ROWS = ("two integers 2 <= lo <= hi", lambda v: len(v) == 2 and all(type(k) is int for k in v) and 2 <= v[0] <= v[1])


def _one_of(options) -> tuple:
    return "|".join(options), lambda v: type(v) is str and v in options


def _names(options) -> tuple:
    return f"an array of {'|'.join(options)}", lambda v: type(v) is list and all(name in options for name in v)


def _parse(given, keys: dict, where: str, known=()) -> dict:
    """{key: value} of the JSON object ``given`` at path ``where`` ("" is the top level) by a table of Keys,
    absent keys at their defaults; ``known`` names the other keys it may hold."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {given!r}")
    unknown = sorted(set(given) - set(keys) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where or 'config'} key(s) {unknown}; known: {', '.join([*keys, *known])}")
    parsed = {}
    for name, (parse, (words, admits), default, _flag) in keys.items():
        path = f"{where}.{name}".lstrip(".")
        if name not in given:
            if default is ...:
                raise ConfigError(f"missing config key {path!r}")
            parsed[name] = copy.deepcopy(default)
            continue
        try:  # a nested table's ConfigError, with its own path, passes through
            parsed[name] = given[name] if parse is None else parse(given[name])
            if admits is None or admits(parsed[name]):
                continue
        except (TypeError, ValueError):
            pass
        raise ConfigError(f"{path} must be {words}, got {given[name]!r}")
    return parsed


def _objects(keys: dict, where: str):
    """The parser of a JSON array of objects at path ``where``, each read by the table ``keys``."""

    def parse(values):
        if not (isinstance(values, list) and all(isinstance(v, dict) for v in values)):
            raise TypeError(values)
        return [_parse(value, keys, f"{where}[{i}]") for i, value in enumerate(values)]

    return parse


def _preset(where: str, tables: dict, kind=...) -> Key:
    """The Key of a preset block at path ``where``: its "kind" (``kind`` when absent) picks the table of its
    other keys; the block's default is the default kind with its defaults."""
    kinds = {"kind": Key(None, _one_of(tables), kind)}

    def parse(given):
        picked = _parse(given, kinds, where, known=given)["kind"]  # the kind alone, whatever else the block holds
        return _parse(given, {**kinds, **tables[picked]}, where)

    return Key(parse, OBJECT, ... if kind is ... else parse({}))


# The parameters of each preset kind; fields builds the tensor and drift from their parsed values.  A vector
# or matrix named in PER_AXIS, a preset's or constants.origin, has one entry or row per axis: validate checks it.
PER_AXIS = ("matrix", "entries", "coeffs", "quad", "center", "lo", "hi", "origin")
ZERO, VECTOR = Key(_real, FINITE, 0.0), Key(_array(_real), REALS)  # a real that defaults to 0; a required vector
PROFILE_ENTRY = {
    "profile": Key(None, _one_of(fields.PROFILES), "const"),
    "c0": ZERO,
    "c1": ZERO,
    "axis": Key(None, NATURAL, 0),  # validate checks it against the dimension
}
TENSORS = {
    "identity": {"scale": Key(_real, POSITIVE, 1.0)},
    "constant": {"matrix": Key(_array(_array(_real)), SQUARE)},
    "constant_diag": {"entries": Key(_array(_real), POSITIVE_EACH)},
    "diag_profile": {"entries": Key(_objects(PROFILE_ENTRY, "tensor.entries"), ("an array of JSON objects", None))},
}
DRIFTS = {
    "zero": {"c": ZERO},
    "constant": {"c": ZERO},
    "affine": {"coeffs": VECTOR, "c0": ZERO},
    "quadratic": {"quad": Key(_array(_array(_real)), SQUARE, None), "coeffs": Key(_array(_real), REALS, None), "c0": ZERO},
    "gaussian": {"amplitude": Key(_real, FINITE), "center": VECTOR, "width": Key(_real, POSITIVE)},
}
MASKS = {"all": {}, "ball": {"center": VECTOR, "radius": Key(_real, POSITIVE)}, "box": {"lo": VECTOR, "hi": VECTOR}}

# Every config value by block ("" is the top level) and key: the one place a key is defined.
# The rules across keys, sizes against the dimension among them, are validate's.
SCHEMA = {
    "": {
        "name": Key(None, STRING),
        "metric": Key(None, _one_of(("euclidean", "hyperbolic"))),
        "tensor": _preset("tensor", TENSORS),
        "drift": _preset("drift", DRIFTS, "zero"),
        "verify": Key(
            None, _names(CHECK_NAMES), [],
            ("--checks", {"type": _flag_names, "metavar": "CHECKS", "help": "comma list of checks"}),
        ),
        "output_dir": Key(None, STRING, None),
    },
    "domain": {
        "bounds": Key(_array(_array(_real, tuple)), PAIRS),
        "resolution": Key(list, CELLS, flag=("--resolution", {"type": _flag_integer, "nargs": "+", "help": "cells per axis"})),
        "mask": _preset("domain.mask", MASKS, "all"),
    },
    "solver": {
        "k": Key(None, EIGENPAIRS, 8, ("--k", {"type": _flag_integer, "help": "eigenpair count (or 'full')"})),
        "solve_tol": Key(_real, POSITIVE, spectral.DEFAULT_SOLVE_TOL, ("--solve-tol", {"help": "residual tolerance"})),
        "ortho_tol": Key(_real, POSITIVE, spectral.DEFAULT_ORTHO_TOL, ("--ortho-tol", {"help": "orthonormality tolerance"})),
        "method": Key(
            None, _one_of(spectral.METHODS), "auto",
            ("--dense", {"action": "store_const", "const": "dense", "help": "force the dense solver"}),
        ),
        "seed": Key(None, NATURAL, 0, ("--seed", {"type": _flag_integer, "help": "solver seed"})),
    },
    "bounds": {
        "theorems": Key(None, _names(tuple(bounds.THEOREMS)), []),
        "k_range": Key(list, GAP_ROWS, None),
        "c_scale": Key(_real, POSITIVE, 1.0),
    },
    "constants": {
        "H0": Key(_real, NONNEGATIVE, None),
        "kappa1": Key(_real, NONNEGATIVE, None),
        "kappa2": Key(_real, NONNEGATIVE, None),
        "origin": Key(_array(_real), REALS, None),
    },
    "oracle": {  # the block itself may be left out or null: the config has no oracle; defaults are the dataclass's
        "kind": Key(None, _one_of(("interval", "box", "anisotropic", "drifted_interval"))),
        "lengths": Key(_array(_real, tuple), POSITIVE_EACH, OracleSpectrum.lengths),
        "coeffs": Key(_array(_real, tuple), POSITIVE_EACH, OracleSpectrum.coeffs),
        "drift_slope": Key(_real, FINITE, OracleSpectrum.drift_slope),
        "rtol": Key(_real, NONNEGATIVE, OracleSpectrum.rtol),
    },
}

# CLI override -> the block of the key it replaces
OVERRIDES = {name: block for block, keys in SCHEMA.items() for name, key in keys.items() if key.flag}


def _read(raw) -> dict:
    """{block: {key: value}} of a raw config by the table, absent keys at their defaults; no oracle: None."""
    blocks = [block for block in SCHEMA if block]
    values = {"": _parse(raw, SCHEMA[""], "", known=blocks)}  # raw is a dict from here on
    for block in blocks:
        no_oracle = block == "oracle" and raw.get(block) is None
        values[block] = None if no_oracle else _parse(raw.get(block, {}), SCHEMA[block], block)
    return values


@dataclass
class SolverSettings:
    k: int | str
    solve_tol: float
    ortho_tol: float
    method: str
    seed: int


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
        """Parse a raw config dict (kept as ``raw``) by the table, then check the rules across keys."""
        values = _read(raw)
        renamed = {"metric": "metric_tag", "bounds": "box", "H0": "h0"}  # the fields not named by their key
        kwargs = {renamed.get(k, k): v for block in ("", "domain", "bounds", "constants") for k, v in values[block].items()}
        oracle = None if values["oracle"] is None else OracleSpectrum(**values["oracle"])
        cfg = ScenarioConfig(**kwargs, dim=len(kwargs["box"]), solver=SolverSettings(**values["solver"]), oracle=oracle, raw=raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """The rules across keys: sizes against the dimension, the pins, the metric against the bound families."""
        if len(self.resolution) != self.dim:
            raise ConfigError("resolution length must match bounds")
        blocks = {"tensor": self.tensor, "drift": self.drift, "domain.mask": self.mask, "constants": {"origin": self.origin}}
        for where, spec in blocks.items():
            for name, given in spec.items():
                if name in PER_AXIS and given is not None and len(given) != self.dim:
                    raise ConfigError(f"{where}.{name} needs {self.dim} entries, got {len(given)}")
        for i, entry in enumerate(self.tensor["entries"] if self.tensor["kind"] == "diag_profile" else ()):
            if entry["axis"] >= self.dim:
                raise ConfigError(f"tensor.entries[{i}].axis must be < {self.dim}, got {entry['axis']}")
        pins = [k for k in (self.kappa1, self.kappa2) if k is not None]
        if len(pins) == 2 and self.kappa2 > self.kappa1:
            raise ConfigError(f"need kappa2 <= kappa1, got kappa1={self.kappa1}, kappa2={self.kappa2}")
        if self.oracle is not None:
            if self.oracle.kind in ("interval", "drifted_interval") and self.dim != 1:
                raise ConfigError(f"{self.oracle.kind} oracle needs a 1-D domain, got {self.dim}-D")
            for name, given in (("lengths", self.oracle.lengths), ("coeffs", self.oracle.coeffs)):
                if given and len(given) != self.dim:
                    raise ConfigError(f"oracle {name} needs {self.dim} entries, got {len(given)}")
        if self.metric_tag == "euclidean":
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
            if self.dim < 2:
                raise ConfigError("the hyperbolic metric needs a domain of dimension >= 2")
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
                if self.tensor["kind"] != "identity":
                    raise ConfigError(
                        "thm13 requires a radially parallel tensor; only identity presets qualify"
                    )


def apply_overrides(cfg: ScenarioConfig, overrides: dict | None) -> ScenarioConfig:
    """A new config: the CLI-allowed overrides merged into the raw dict, parsed again."""
    overrides = {key: val for key, val in (overrides or {}).items() if val is not None}
    raw = copy.deepcopy(cfg.raw)
    for key, val in overrides.items():
        if key not in OVERRIDES:
            raise ConfigError(f"override {key!r} not permitted")
        if key == "resolution":  # one entry serves every axis
            val = list(val) if isinstance(val, (list, tuple)) else [val]
            val = val * cfg.dim if len(val) == 1 else val
        (raw.setdefault(OVERRIDES[key], {}) if OVERRIDES[key] else raw)[key] = val
    return ScenarioConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# construction from config
# ---------------------------------------------------------------------------


def _mask_rule(mask: dict):
    """The cell-center rule of a parsed mask; None keeps every cell."""
    if mask["kind"] == "ball":
        center, radius = np.asarray(mask["center"]), mask["radius"]
        return lambda centers: np.linalg.norm(centers - center[None, :], axis=1) <= radius
    if mask["kind"] == "box":
        lo, hi = np.asarray(mask["lo"]), np.asarray(mask["hi"])
        return lambda centers: np.all((centers >= lo[None, :]) & (centers <= hi[None, :]), axis=1)
    return None


# ---------------------------------------------------------------------------
# oracle spectra
# ---------------------------------------------------------------------------


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
    metric = (geometry.hyperbolic_half_plane if hyperbolic else geometry.euclidean)(cfg.dim)
    domain = geometry.make_box_domain(cfg.box, cfg.resolution, metric, _mask_rule(cfg.mask))
    tensor = fields.tensor_preset(dim=cfg.dim, **cfg.tensor)
    drift = fields.drift_preset(dim=cfg.dim, **cfg.drift)
    if "thm12" in cfg.theorems or "thm13" in cfg.theorems:  # validate keeps them on the half-space
        fields.validate_radially_constant(drift.value, domain)
        fields.validate_radially_constant(
            lambda p: tensor.matrix(p).reshape(p.shape[0], -1), domain
        )
        # T must send the vertical direction to a multiple of itself
        pts = domain.quadrature(slice(16))[0][:16]  # the first 16 points: 16 cells hold at least that many
        theta = tensor.matrix(pts)
        off = np.abs(theta[:, :-1, -1])
        if np.max(off) > 1e-12:
            raise ConfigError("hyperbolic bound families need T(d_n) parallel to d_n")
    return metric, domain, tensor, drift


def collect_constants(cfg, pair: assembly.OperatorPair) -> fields.OperatorConstants:
    """The bound constants; each supremum is the largest of its values on the chunks of the pair's Gauss points.

    Where T and eta are constant and rho = 1, every term of t0 and c0 is a
    structural zero: both are 0 and no point is formed.
    """
    domain, field, drift = pair.domain, pair.field, pair.drift
    metric = domain.metric
    kwargs = {"n": metric.dim, "epsilon": pair.epsilon, "delta": pair.delta, "h0": 0.0}
    prov = {"epsilon": "computed", "delta": "computed", "t0": "computed", "c0": "computed", "h0": "forced 0 (Euclidean)"}
    origin = None
    if metric.is_hyperbolic:
        kwargs["h0"] = cfg.h0 if cfg.h0 is not None else 0.0
        prov["h0"] = "config"
        if cfg.kappa1 is not None:
            kwargs["kappa1"] = cfg.kappa1
            kwargs["kappa2"] = cfg.kappa2 if cfg.kappa2 is not None else cfg.kappa1
            prov["kappa1"] = prov["kappa2"] = "config"
        if cfg.origin is not None:
            origin = np.array(cfg.origin)
            kwargs["d"] = geometry.domain_origin_distance(domain, origin)  # checks the origin before eta1 reads it
            prov["d"] = "computed (grid approximation from above)"
            prov["eta1"] = prov["eta_r"] = "computed"
    vanish = field.degree == 0 and drift.degree == 0 and not metric.is_hyperbolic
    sups = []  # per chunk: t0, c0 and, with an origin, eta1 and eta_r
    for cells in [] if vanish else assembly.even_chunks(domain.n_cells, assembly.QUAD_CELLS):
        sample = fields.FieldSample(field, drift, metric, domain.quadrature(cells)[0])
        sups.append((fields.compute_T0(sample), fields.compute_C0(sample)))
        if origin is not None:
            sups[-1] += fields.compute_eta_radial_constants(sample, origin)
    # np.max, not max: a nan on any chunk stays
    kwargs.update(zip(("t0", "c0", "eta1", "eta_r"), np.max(sups, axis=0).tolist() if sups else (0.0, 0.0)))
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
        except (EtagapError, ValueError, ArithmeticError) as exc:  # an overflow too is one error line
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
