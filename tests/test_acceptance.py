"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line once its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import sides

from etagap.bounds import lemma31_check, random_lemma31_instance, yang_check
from etagap.cli import main as cli_main
from etagap.fields import LogAxisScalar, apply_operator_L
from etagap.geometry import gradient_norm
from etagap.scenario import apply_overrides, builtin_config, run_scenario
from etagap.spectral import SpectrumResult, multiplet_labels, validate_spectrum


def _run_builtin(name, **overrides):
    cfg = apply_overrides(builtin_config(name), overrides or None)
    t0 = time.perf_counter()
    rep = run_scenario(cfg, write=False)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def interval_run():
    return _run_builtin("interval_laplacian")


@pytest.fixture(scope="module")
def square_run():
    return _run_builtin("square_laplacian")


@pytest.fixture(scope="module")
def anisotropic_run():
    return _run_builtin("anisotropic_square")


@pytest.fixture(scope="module")
def drift_run():
    return _run_builtin("drifted_interval")


@pytest.fixture(scope="module")
def hyperbolic_run():
    return _run_builtin("hyperbolic_cy")


def test_criterion_1_interval_oracle(interval_run):
    rep, elapsed = interval_run
    modes = np.arange(1, 11, dtype=float) ** 2
    rel = np.abs(rep.spectrum.eigenvalues - modes) / modes
    assert np.max(rel) < 1e-3, f"eigenvalue error {np.max(rel):.2e} exceeds 0.1%"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    gap = rep.gap_reports["thm11"]
    lam1 = float(rep.spectrum.eigenvalues[0])
    assert gap.constant == pytest.approx(4.0 * math.sqrt(5.0) * lam1, rel=1e-12)
    rows = {r.k: r for r in gap.rows}
    for k in range(2, 10):
        assert rows[k].status == "pass", f"gap row k={k}: {rows[k].status}"
    print(f"\nPASS criterion 1: interval oracle (max rel err {np.max(rel):.2e}, {elapsed:.2f}s)")


def test_criterion_2_square_oracle(square_run):
    rep, elapsed = square_run
    oracle_error, rtol = sides(*rep.rows["oracle"], "oracle")
    assert rtol == 0.01 and oracle_error < 0.01, f"eigenvalue error {oracle_error:.2e} exceeds 1%"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    rows = {r.k: r for r in rep.gap_reports["thm11"].rows}
    for k in range(2, 11):
        assert rows[k].status == "pass", f"gap row k={k}: {rows[k].status}"
    groups = multiplet_labels(rep.spectrum.eigenvalues)
    # analytic spectrum 2, 5, 5, 8, 10, 10, ...: indices 1,2 and 4,5 pair up
    assert groups[1] == groups[2], "multiplet (5, 5) not detected"
    assert groups[4] == groups[5], "multiplet (10, 10) not detected"
    assert groups[0] != groups[1] and groups[3] != groups[4]
    print(f"\nPASS criterion 2: square oracle (max rel err {oracle_error:.2e}, {elapsed:.2f}s)")


def test_criterion_3_anisotropic_oracle(anisotropic_run):
    rep, elapsed = anisotropic_run
    oracle_error, rtol = sides(*rep.rows["oracle"], "oracle")
    assert rtol == 0.01 and oracle_error < 0.01, f"eigenvalue error {oracle_error:.2e} exceeds 1%"
    consts = rep.constants
    assert (consts.epsilon, consts.delta) == (2.0, 3.0), "tensor bounds not exactly (2, 3)"
    assert consts.sigma == 4.0
    gap = rep.gap_reports["thm11"]
    assert gap.exponent == pytest.approx(0.75)
    rows = {r.k: r for r in gap.rows}
    for k in range(2, 11):
        assert rows[k].status == "pass", f"gap row k={k}: {rows[k].status}"
    print(f"\nPASS criterion 3: anisotropic oracle (exponent 3/4, {elapsed:.2f}s)")


def test_criterion_4_drift_oracle(drift_run):
    rep, _ = drift_run
    modes = np.arange(1, 11, dtype=float) ** 2 + 0.25
    rel = np.abs(rep.spectrum.eigenvalues - modes) / modes
    assert np.max(rel) < 2e-3, f"eigenvalue error {np.max(rel):.2e} exceeds 0.2%"
    assert rep.constants.c0 == pytest.approx(-0.25, abs=1e-6)
    rows = {r.k: r for r in rep.rows["yang"]}
    for k in range(1, 9):
        ups_next, rhs = sides(rows[k], "growth")
        assert rows[k].status == "pass"
        assert ups_next == pytest.approx((k + 1) ** 2, rel=2e-3)
        assert rhs == pytest.approx(5.0 * k**2, rel=2e-3)
    print(f"\nPASS criterion 4: drift oracle (C0 = {rep.constants.c0:.9f})")


def test_criterion_5_lemma31_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    hypothesis_satisfied = 0
    counterexamples = 0
    for _ in range(10_000):
        res = lemma31_check(random_lemma31_instance(rng))
        if res.hypothesis_ok:
            hypothesis_satisfied += 1
            if not res.conclusion_ok:
                counterexamples += 1
    elapsed = time.perf_counter() - t0
    assert counterexamples == 0
    assert hypothesis_satisfied > 0
    # two-term instances meet the bound with equality
    from etagap.bounds import Lemma31Instance

    rng2 = np.random.default_rng(1)
    for _ in range(500):
        mu1 = rng2.uniform(0.1, 5.0)
        res = lemma31_check(
            Lemma31Instance((mu1, mu1 + rng2.uniform(0.01, 3.0)), tuple(rng2.uniform(0.1, 1.0, 2)))
        )
        assert abs(res.s - res.bound) <= 1e-12
    assert elapsed < 5.0, f"suite runtime {elapsed:.2f}s exceeds 5s"
    print(f"\nPASS criterion 5: sequence-inequality property suite ({elapsed:.2f}s, 10^4 instances)")


def test_criterion_6_growth_bound_everywhere(
    interval_run, square_run, anisotropic_run, drift_run, hyperbolic_run
):
    for name, (rep, _) in {
        "interval": interval_run,
        "square": square_run,
        "anisotropic": anisotropic_run,
        "drift": drift_run,
        "hyperbolic": hyperbolic_run,
    }.items():
        yang = rep.rows.get("yang") or yang_check(rep.spectrum, rep.constants)
        assert all(row.status == "pass" for row in yang), f"growth bound failed on {name}"
    print("\nPASS criterion 6: growth bound holds on all five spectra")


def test_criterion_7_test_function_inequalities(square_run):
    rep, _ = square_run
    cor32 = rep.rows["cor32"]
    assert [r.extra["test_function"] for r in cor32] == ["x1"] * 10 + ["x2"] * 10
    for label in ("x1", "x2"):
        checked = {r.k: r for r in cor32 if r.extra["test_function"] == label and r.status != "skipped"}
        valid_up_to_8 = [k for k in checked if k <= 8]
        assert sorted(valid_up_to_8) == [2, 3, 5, 7], f"admissible rows changed for {label}"
        for k in valid_up_to_8:
            row = checked[k]
            assert row.status == "pass", f"{label} k={k}: {row.status}"
            (lhs_314, rhs_314), (lhs_315, rhs_315) = sides(row, "3.14"), sides(row, "3.15")
            assert rhs_314 - lhs_314 > 0 and rhs_315 - lhs_315 > 0
    print("\nPASS criterion 7: test-function inequalities for f = x1, x2 (j = 1, k <= 8)")


def test_criterion_8_hyperbolic_scenario(hyperbolic_run):
    rep, _ = hyperbolic_run
    # Rayleigh identity defect
    defect = rep.validation.checks["rayleigh_identity"][1]
    assert defect < 1e-7, f"Rayleigh defect {defect:.2e}"
    # unit metric gradient of ln x2, sampled
    from etagap.geometry import hyperbolic_half_plane

    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(1, 2, 200)])
    metric = hyperbolic_half_plane(2)
    f = LogAxisScalar(2)
    norms = gradient_norm(metric, pts, f.grad(pts))
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # L(ln x2) = -1 at every grid node
    from etagap.fields import ConstantScalar, FieldSample, identity_tensor
    from etagap.geometry import make_box_domain

    dom = make_box_domain([(0, 1), (1, 2)], [128, 128], metric)
    all_nodes = dom.node_coords(np.arange(int(np.prod(dom.node_shape))))
    lf = apply_operator_L(FieldSample(identity_tensor(2), ConstantScalar(2), metric, all_nodes), f)
    assert np.max(np.abs(lf + 1.0)) < 1e-10
    # gap rows never hard-fail
    assert set(rep.gap_reports) == {"thm12", "thm13"}
    for tag, gap in rep.gap_reports.items():
        for row in gap.rows:
            assert row.status in ("pass", "inconclusive", "info"), f"{tag} k={row.k} failed"
    # thm13 evaluated with the computed grid distance and a(2, T) = 1
    thm13 = rep.gap_reports["thm13"]
    assert thm13.constant > 0
    assert thm13.notes.get("h") is not None
    details_d = rep.constants.d
    assert details_d == pytest.approx(math.log(2.0), abs=1e-12)
    from etagap.bounds import a_nT

    assert a_nT(2, rep.constants.epsilon, rep.constants.delta) == 1.0
    assert not rep.errors
    assert rep.counts()["fail"] == 0
    print(f"\nPASS criterion 8: hyperbolic scenario (Rayleigh defect {defect:.2e}, d = ln 2)")


def test_criterion_9_negative_controls(tmp_path, square_run):
    # dividing the constant by 10^6 must hard-fail through the CLI
    raw = {
        "name": "negative_control",
        "metric": "euclidean",
        "domain": {
            "bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]],
            "resolution": [128, 128],
        },
        "tensor": {"kind": "identity"},
        "drift": {"kind": "zero"},
        "solver": {"k": 12, "seed": 1},
        "bounds": {"theorems": ["thm11"], "k_range": [2, 10], "c_scale": "1e-6"},
        "verify": ["gap"],
    }
    cfg_path = tmp_path / "negative.json"
    cfg_path.write_text(json.dumps(raw))
    code = cli_main(["verify", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1, f"negative control exited {code}, expected 1"

    # perturbing an eigenvector must break the orthonormality validation
    rep, _ = square_run
    spectrum = rep.spectrum
    bad = spectrum.eigenvectors.copy()
    bad[:, 0] = bad[:, 0] * 1.01
    from etagap.assembly import assemble
    from etagap.fields import ConstantScalar, identity_tensor
    from etagap.geometry import euclidean, make_box_domain

    dom = make_box_domain([(0, np.pi), (0, np.pi)], [128, 128], euclidean(2))
    pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
    tampered = SpectrumResult(spectrum.eigenvalues, bad, spectrum.residuals, dict(spectrum.meta))
    val = validate_spectrum(tampered, pair)
    assert not val.checks["b_orthonormal"][0]
    print("\nPASS criterion 9: negative controls (exit 1; orthonormality break detected)")


def test_criterion_10_determinism(tmp_path):
    for sub in ("a", "b"):
        cfg = builtin_config("drifted_interval")
        run_scenario(cfg, output_dir=str(tmp_path / sub))
    for fname in ("spectrum.csv", "gap_thm11.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes(), (
            f"{fname} differs between identical runs"
        )
    print("\nPASS criterion 10: byte-identical CSV across repeated runs")
