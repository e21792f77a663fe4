"""Scenario configs, oracles, builtin runs, and determinism."""

import json
import tracemalloc

import numpy as np
import pytest
from conftest import sides

from etagap import spectral
from etagap.errors import ConfigError
from etagap.spectral import ValidationReport
from etagap.scenario import (
    OracleSpectrum,
    ScenarioConfig,
    ScenarioReport,
    apply_overrides,
    build_problem,
    builtin_config,
    list_builtin_scenarios,
    load_config,
    oracle_eigenvalues,
    run_scenario,
)


def minimal_config(**over):
    raw = {
        "name": "t",
        "metric": "euclidean",
        "domain": {"bounds": [["0", "3.141592653589793"]], "resolution": [16]},
        "tensor": {"kind": "identity"},
        "drift": {"kind": "zero"},
        "solver": {"k": 3},
        "bounds": {"theorems": ["thm11"], "k_range": [2, 2]},
        "verify": ["gap"],
    }
    raw.update(over)
    return raw


class TestConfigValidation:
    def test_minimal_parses(self):
        cfg = ScenarioConfig.from_dict(minimal_config())
        assert cfg.dim == 1
        assert cfg.solver.k == 3

    def test_thm12_on_euclidean_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(
                minimal_config(bounds={"theorems": ["thm12"], "k_range": [2, 2]})
            )

    def test_euclidean_h0_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(minimal_config(constants={"H0": "1"}))

    def test_thm11_origin_rejected(self):
        with pytest.raises(ConfigError, match="thm11 scenarios take no curvature/origin inputs"):
            ScenarioConfig.from_dict(minimal_config(constants={"origin": ["-1"]}))

    def test_thm13_needs_identity_tensor(self):
        raw = minimal_config(
            metric="hyperbolic",
            domain={"bounds": [["0", "1"], ["1", "2"]], "resolution": [8, 8]},
            tensor={"kind": "constant_diag", "entries": ["2", "3"]},
            bounds={"theorems": ["thm13"], "k_range": [2, 2]},
            constants={"H0": "1", "kappa1": "1", "kappa2": "1", "origin": ["0", "4"]},
        )
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_origin_needs_one_entry_per_axis(self):
        raw = minimal_config(
            metric="hyperbolic",
            domain={"bounds": [["0", "1"], ["1", "2"]], "resolution": [8, 8]},
            bounds={"theorems": ["thm13"], "k_range": [2, 2]},
            constants={"H0": "1", "kappa1": "1", "kappa2": "1", "origin": ["0", "4", "1"]},
        )
        with pytest.raises(ConfigError, match="origin needs 2 entries, got 3"):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "over, where, key",
        [
            ({"verfy": ["gap"]}, "config", "verfy"),
            ({"domain": {"bounds": [["0", "1"]], "resolution": [16], "Mask": {}}}, "domain", "Mask"),
            ({"solver": {"K": 3}}, "solver", "K"),
            ({"bounds": {"theorems": ["thm11"], "k_rang": [2, 2]}}, "bounds", "k_rang"),
            ({"constants": {"h0": "1"}}, "constants", "h0"),
            ({"oracle": {"kind": "interval", "rtool": "0.01"}}, "oracle", "rtool"),
        ],
    )
    def test_unknown_key_rejected(self, over, where, key):
        # a misspelled key is an error, not a silent default
        with pytest.raises(ConfigError, match=f"unknown {where} key\\(s\\) \\['{key}'\\]"):
            ScenarioConfig.from_dict(minimal_config(**over))

    def test_hyperbolic_needs_h0(self):
        raw = minimal_config(
            metric="hyperbolic",
            domain={"bounds": [["0", "1"], ["1", "2"]], "resolution": [8, 8]},
            bounds={"theorems": ["thm12"], "k_range": [2, 2]},
        )
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_bad_decimal_string(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(
                minimal_config(domain={"bounds": [["0", "pi"]], "resolution": [16]})
            )

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(minimal_config(verify=["spectra"]))

    def test_override_whitelist(self):
        cfg = ScenarioConfig.from_dict(minimal_config())
        cfg2 = apply_overrides(cfg, {"resolution": [64], "k": 5, "seed": 3})
        assert cfg2.resolution == [64] and cfg2.solver.k == 5 and cfg2.solver.seed == 3
        assert cfg.resolution == [16]  # original untouched
        with pytest.raises(ConfigError):
            apply_overrides(cfg, {"tensor": {"kind": "identity"}})

    def test_checks_override_meets_the_config_validation(self):
        cfg = ScenarioConfig.from_dict(minimal_config())
        assert apply_overrides(cfg, {"verify": ["gap", "yang"]}).verify == ["gap", "yang"]
        with pytest.raises(ConfigError, match="unknown verification 'nonsense'"):
            apply_overrides(cfg, {"verify": ["gap", "nonsense"]})
        with pytest.raises(ConfigError):  # an output directory goes to run_scenario, not into the config
            apply_overrides(cfg, {"output_dir": "elsewhere"})


class TestOracles:
    def test_interval(self):
        out = oracle_eigenvalues(OracleSpectrum("interval"), 4, 1)
        assert out == pytest.approx([1.0, 4.0, 9.0, 16.0])

    def test_box_with_multiplicity(self):
        out = oracle_eigenvalues(OracleSpectrum("box", (np.pi, np.pi)), 5, 2)
        assert out == pytest.approx([2.0, 5.0, 5.0, 8.0, 10.0])

    def test_drifted_interval(self):
        out = oracle_eigenvalues(OracleSpectrum("drifted_interval", (np.pi,), (), 1.0), 3, 1)
        assert out == pytest.approx([1.25, 4.25, 9.25])

    def test_drifted_interval_scales_with_the_coefficient(self):
        # T = 2 scales the shifted modes k^2 + 1/4 as a whole
        out = oracle_eigenvalues(OracleSpectrum("drifted_interval", (np.pi,), (2.0,), 1.0), 3, 1)
        assert out == pytest.approx([2.5, 8.5, 18.5])

    def test_anisotropic(self):
        out = oracle_eigenvalues(
            OracleSpectrum("anisotropic", (np.pi, np.pi), (2.0, 3.0)), 5, 2
        )
        assert out == pytest.approx([5.0, 11.0, 14.0, 20.0, 21.0])

    def test_box_without_lengths_takes_pi_on_every_axis(self):
        out = oracle_eigenvalues(OracleSpectrum("box"), 4, 3)
        assert out == pytest.approx([3.0, 6.0, 6.0, 6.0])

    def test_ascending(self):
        out = oracle_eigenvalues(OracleSpectrum("box", (np.pi, 1.0)), 30, 2)
        assert np.all(np.diff(out) >= 0.0)

    def test_box_drift_slope_shifts_axis_0(self):
        # e^(s x_1 / 2) takes the drift to a shift s^2 / 4, scaled by T_11 = 2 only
        plain = oracle_eigenvalues(OracleSpectrum("anisotropic", (np.pi, np.pi), (2.0, 3.0)), 5, 2)
        drifted = oracle_eigenvalues(OracleSpectrum("anisotropic", (np.pi, np.pi), (2.0, 3.0), 1.0), 5, 2)
        assert drifted == pytest.approx(plain + 0.5, rel=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_matches_every_mode_tuple(self, dim, k):
        # the k smallest of all sums over modes 1..k per axis, formed on a full meshgrid
        oracle = OracleSpectrum("anisotropic", (np.pi, 1.0, 2.5)[:dim], (2.0, 3.0, 0.5)[:dim], 0.7)
        grids = np.meshgrid(*[np.arange(1, k + 1)] * dim, indexing="ij")
        lam = np.zeros(grids[0].shape)
        for a, (c, g, length) in enumerate(zip(oracle.coeffs, grids, oracle.lengths)):
            lam = lam + c * ((g * np.pi / length) ** 2 + (oracle.drift_slope if a == 0 else 0.0) ** 2 / 4.0)
        assert np.array_equal(oracle_eigenvalues(oracle, k, dim), np.sort(lam, axis=None)[:k])

    def test_memory_stays_bounded_in_3d(self):
        # k^2 partial sums per axis, not a grid of (sqrt(k) + k)^3 mode tuples (165 MiB at k = 150)
        tracemalloc.start()
        try:
            out = oracle_eigenvalues(OracleSpectrum("box"), 150, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (150,) and peak < 4 * 2**20


# the eigensolver path of each builtin: the CI runs of the builtins are the only
# end-to-end coverage of each path, so a builtin that moves path must say so here
BUILTIN_SOLVER_PATHS = {
    "anisotropic_square": "separable",
    "disk_laplacian": "superlu",
    "drifted_interval": "superlu",
    "halfspace_profile": "fast_diagonalization",
    "hyperbolic_cy": "fast_diagonalization",
    "interval_laplacian": "superlu",
    "lemma32_square": "dense",
    "square_laplacian": "separable",
}


# pass, info and skipped rows of each builtin run; none fails, is inconclusive or errs
BUILTIN_COUNTS = {
    "anisotropic_square": (30, 1, 4),
    "disk_laplacian": (43, 1, 11),
    "drifted_interval": (23, 1, 0),
    "halfspace_profile": (29, 1, 0),
    "hyperbolic_cy": (30, 2, 0),
    "interval_laplacian": (24, 1, 0),
    "lemma32_square": (8, 0, 6),
    "square_laplacian": (39, 1, 8),
}


class TestBuiltins:
    def test_all_builtins_listed(self):
        names = list_builtin_scenarios()
        for expected in (
            "interval_laplacian",
            "square_laplacian",
            "anisotropic_square",
            "drifted_interval",
            "hyperbolic_cy",
            "lemma32_square",
            "disk_laplacian",
            "halfspace_profile",
        ):
            assert expected in names

    def test_every_solver_path_pinned(self):
        assert sorted(BUILTIN_SOLVER_PATHS) == sorted(BUILTIN_COUNTS) == sorted(list_builtin_scenarios())

    @pytest.mark.parametrize("name", sorted(BUILTIN_SOLVER_PATHS))
    def test_builtin_solver_path(self, name):
        rep = run_scenario(builtin_config(name), write=False)
        assert rep.spectrum.meta["method"] == BUILTIN_SOLVER_PATHS[name]
        passed, info, skipped = BUILTIN_COUNTS[name]
        assert rep.counts() == {
            "pass": passed, "fail": 0, "inconclusive": 0, "info": info, "skipped": skipped, "errors": 0
        }
        assert rep.exit_code() == 0

    def test_load_by_name_and_by_path(self, tmp_path):
        cfg = load_config("interval_laplacian")
        assert cfg.name == "interval_laplacian"
        p = tmp_path / "c.json"
        p.write_text(json.dumps(minimal_config()))
        assert load_config(str(p)).name == "t"
        with pytest.raises(ConfigError):
            load_config("no_such_scenario")

    def test_square_builtin_low_resolution(self, tmp_path):
        cfg = apply_overrides(builtin_config("square_laplacian"), {"resolution": [48]})
        rep = run_scenario(cfg, output_dir=str(tmp_path / "out"))
        counts = rep.counts()
        assert counts["fail"] == 0 and counts["errors"] == 0
        assert sides(*rep.rows["oracle"], "oracle")[0] < 0.01
        assert (tmp_path / "out" / "spectrum.csv").exists()
        assert (tmp_path / "out" / "gap_thm11.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exit_code"] == 0
        assert summary["gap_reports"]["thm11"]["constants_used"]["provenance"]["h0"].startswith(
            "forced 0"
        )

    def test_hyperbolic_builtin_low_resolution(self, tmp_path):
        cfg = apply_overrides(builtin_config("hyperbolic_cy"), {"resolution": [32]})
        rep = run_scenario(cfg, output_dir=str(tmp_path / "out"))
        assert rep.counts()["fail"] == 0 and rep.counts()["errors"] == 0
        assert rep.constants.d == pytest.approx(np.log(2.0))
        assert set(rep.gap_reports) == {"thm12", "thm13"}
        # every non-info row must be pass or inconclusive, never fail
        for rep_tag in rep.gap_reports.values():
            for row in rep_tag.rows:
                assert row.status in ("pass", "inconclusive", "info")

    def test_hyperbolic_profile_tensor_thm12(self, tmp_path):
        # T = psi * id with psi depending only on x1 satisfies the
        # vertical-eigenvector and radially-constant hypotheses
        raw = {
            "name": "hyp_psi",
            "metric": "hyperbolic",
            "domain": {"bounds": [["0", "1"], ["1", "2"]], "resolution": [32, 32]},
            "tensor": {
                "kind": "diag_profile",
                "entries": [
                    {"profile": "sin", "c0": "3", "c1": "0.5", "axis": 0},
                    {"profile": "sin", "c0": "3", "c1": "0.5", "axis": 0},
                ],
            },
            "drift": {"kind": "zero"},
            "solver": {"k": 8, "seed": 1},
            "bounds": {"theorems": ["thm12"], "k_range": [2, 6]},
            "constants": {"H0": "1"},
            "verify": ["gap", "yang", "cor32"],
        }
        rep = run_scenario(ScenarioConfig.from_dict(raw), write=False)
        assert rep.counts()["fail"] == 0 and not rep.errors
        assert 2.5 <= rep.constants.epsilon <= rep.constants.delta <= 3.5
        assert {row.extra["test_function"] for row in rep.rows["cor32"]} == {"ln_xn"}
        assert {row.status for row in rep.rows["cor32"]} <= {"pass", "skipped"}

    @pytest.mark.parametrize("k", ["full", 12])
    def test_lemma32_square_checks_two_rows(self, k):
        # the dense full spectrum and the separable partial one give the same row statuses
        rep = run_scenario(apply_overrides(builtin_config("lemma32_square"), {"k": k}), write=False)
        assert not rep.errors and rep.exit_code() == 0
        assert [(r.k, r.status) for r in rep.rows["lemma32"] if r.status != "skipped"] == [(2, "pass"), (3, "pass")]

    def test_halfspace_profile_builtin(self):
        # the builtin with a variable tensor: t0 and c0 read dT, div T, grad div T and dv
        rep = run_scenario(builtin_config("halfspace_profile"), write=False)
        counts = rep.counts()
        assert (counts["pass"], counts["fail"], counts["inconclusive"]) == (29, 0, 0) and not rep.errors
        assert [(r.k, r.status) for r in rep.rows["lemma32"]] == [(k, "pass") for k in range(1, 7)]
        assert rep.constants.t0 == pytest.approx(1.12761, rel=1e-5)
        assert rep.constants.c0 == pytest.approx(-1.75736, rel=1e-5)

    def test_reported_constants_match_standalone_extraction(self):
        # run_scenario takes epsilon and delta from the quadrature sample the
        # pair was assembled on; a fresh evaluation must give the same floats
        from etagap.fields import FieldSample, compute_C0, compute_T0, tensor_bounds
        from etagap.scenario import build_problem

        raw = {
            "name": "hyp_ball",
            "metric": "hyperbolic",
            "domain": {
                "bounds": [["0", "1"], ["1", "2"]],
                "resolution": [24, 24],
                "mask": {"kind": "ball", "center": ["0.5", "1.5"], "radius": "0.45"},
            },
            "tensor": {
                "kind": "diag_profile",
                "entries": [
                    {"profile": "sin", "c0": "3", "c1": "0.7", "axis": 0},
                    {"profile": "sin", "c0": "2.5", "c1": "0.4", "axis": 0},
                ],
            },
            "drift": {"kind": "affine", "coeffs": ["0.9", "0"]},
            "solver": {"k": 8, "seed": 1},
            "bounds": {"theorems": ["thm12"], "k_range": [2, 6]},
            "constants": {"H0": "1"},
            "verify": ["gap", "yang", "cor32"],
        }
        cfg = ScenarioConfig.from_dict(raw)
        consts = run_scenario(cfg, write=False).constants
        metric, domain, tensor, drift = build_problem(cfg)
        assert (consts.epsilon, consts.delta) == tensor_bounds(tensor, domain)
        fresh = FieldSample(tensor, drift, metric, domain.quadrature()[0])
        assert consts.t0 == compute_T0(fresh)
        assert consts.c0 == compute_C0(fresh)
        assert consts.t0 > 0.0 and consts.c0 != 0.0

    def test_vertical_varying_tensor_rejected_for_thm12(self):
        raw = {
            "name": "hyp_bad",
            "metric": "hyperbolic",
            "domain": {"bounds": [["0", "1"], ["1", "2"]], "resolution": [16, 16]},
            "tensor": {
                "kind": "diag_profile",
                "entries": [
                    {"profile": "linear", "c0": "3", "c1": "0.5", "axis": 1},
                    {"profile": "linear", "c0": "3", "c1": "0.5", "axis": 1},
                ],
            },
            "drift": {"kind": "zero"},
            "solver": {"k": 4, "seed": 1},
            "bounds": {"theorems": ["thm12"], "k_range": [2, 2]},
            "constants": {"H0": "1"},
            "verify": ["gap"],
        }
        from etagap.errors import OutOfDomain
        from etagap.scenario import build_problem

        with pytest.raises(OutOfDomain):
            build_problem(ScenarioConfig.from_dict(raw))

    def test_determinism_byte_identical_csv(self, tmp_path):
        for run in ("a", "b"):
            cfg = apply_overrides(
                builtin_config("drifted_interval"), {"resolution": [400]}
            )
            run_scenario(cfg, output_dir=str(tmp_path / run))
        for fname in ("spectrum.csv", "gap_thm11.csv"):
            b1 = (tmp_path / "a" / fname).read_bytes()
            b2 = (tmp_path / "b" / fname).read_bytes()
            assert b1 == b2

    def test_resolution_ladder_error_decreases(self):
        errs = []
        for res in (16, 32, 64):
            cfg = apply_overrides(
                builtin_config("square_laplacian"), {"resolution": [res], "k": 6}
            )
            cfg.verify = []
            cfg.theorems = []
            rep = run_scenario(cfg, write=False)
            errs.append(sides(*rep.rows["oracle"], "oracle")[0])
        assert errs[2] < errs[1] < errs[0]

    def test_negative_control_c_scale(self, tmp_path):
        raw = json.loads(
            json.dumps(
                {
                    "name": "neg",
                    "metric": "euclidean",
                    "domain": {
                        "bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]],
                        "resolution": [48, 48],
                    },
                    "tensor": {"kind": "identity"},
                    "drift": {"kind": "zero"},
                    "solver": {"k": 8},
                    "bounds": {"theorems": ["thm11"], "k_range": [2, 6], "c_scale": "1e-6"},
                    "verify": ["gap"],
                }
            )
        )
        rep = run_scenario(ScenarioConfig.from_dict(raw), write=False)
        assert rep.counts()["fail"] > 0
        assert rep.exit_code() == 1


@pytest.mark.parametrize("defect, verdict", [(-1e-13, "pass"), (0.0, "pass"), (-1e-11, "fail"), (float("nan"), "fail")])
def test_parseval_counts_by_the_one_pass_rule(monkeypatch, defect, verdict):
    # Bessel's inequality, captured <= total, at the relative tolerance of holds, 1e-12
    monkeypatch.setattr(spectral, "parseval_defect", lambda spectrum, pair, f: defect)
    cfg = ScenarioConfig.from_dict(minimal_config(verify=["parseval"]))
    rep = run_scenario(cfg, write=False)
    (row,) = rep.rows["parseval"]
    assert row.status == verdict and row.extra["defect"] is defect
    counts = ScenarioReport("p", cfg, None, ValidationReport({}), None, rows=rep.rows).counts()
    assert (counts["pass"], counts["fail"]) == ((1, 0) if verdict == "pass" else (0, 1))
