"""Command-line front end: exit codes are the machine contract."""

import json

import numpy as np
import pytest

from etagap import assembly, bounds, scenario, spectral
from etagap.cli import main
from etagap.errors import InsufficientSpectrum


def small_square_config(tmp_path, **over):
    raw = {
        "name": "cli_square",
        "metric": "euclidean",
        "domain": {
            "bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]],
            "resolution": [48, 48],
        },
        "tensor": {"kind": "identity"},
        "drift": {"kind": "zero"},
        "solver": {"k": 10, "seed": 1},
        "bounds": {"theorems": ["thm11"], "k_range": [2, 8]},
        "verify": ["gap", "yang"],
    }
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestSpectrumCommand:
    def test_builtin_square_exit_zero(self, tmp_path):
        code = main(
            [
                "spectrum",
                "square_laplacian",
                "--resolution",
                "48",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        csv = (tmp_path / "o" / "spectrum.csv").read_text().splitlines()
        assert csv[0] == "j,lambda,residual,multiplicity_group"
        assert len(csv) == 13

    def test_decimal_k_override(self, tmp_path):
        argv = ["spectrum", "square_laplacian", "--resolution", "48", "--k", "6", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert len((tmp_path / "o" / "spectrum.csv").read_text().splitlines()) == 7

    def test_missing_config_exit_3(self):
        assert main(["spectrum", "definitely_missing.json"]) == 3

    def test_k_exceeding_dofs_exit_3(self, tmp_path):
        cfg = small_square_config(tmp_path, solver={"k": 10_000})
        assert main(["spectrum", str(cfg)]) == 3

    def test_malformed_json_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["spectrum", str(bad)]) == 3


class TestVerifyCommand:
    def test_square_gap_yang_exit_zero(self, tmp_path):
        cfg = small_square_config(tmp_path)
        code = main(["verify", str(cfg), "--checks", "gap,yang", "--out", str(tmp_path / "o")])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["counts"]["fail"] == 0
        solver = summary["solver"]
        assert solver["method"] == "separable" and solver["axis_ndof"] == [47, 47]
        assert solver["max_residual"] <= solver["solve_tol"]

    def test_masked_square_takes_shift_invert(self, tmp_path):
        domain = {
            "bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]],
            "resolution": [48, 48],
            "mask": {"kind": "ball", "center": ["1.5707963267948966", "1.5707963267948966"], "radius": "1.4"},
        }
        cfg = small_square_config(tmp_path, domain=domain)
        code = main(["verify", str(cfg), "--checks", "gap,yang", "--out", str(tmp_path / "o")])
        assert code == 0
        solver = json.loads((tmp_path / "o" / "summary.json").read_text())["solver"]
        assert solver["method"] == "superlu" and "inverse" not in solver
        assert solver["ordering"] == "MMD_AT_PLUS_A"
        assert solver["max_residual"] <= solver["solve_tol"]

    def test_scaled_drifted_interval_matches_its_oracle(self, tmp_path):
        interval = {"bounds": [["0", "3.141592653589793"]], "resolution": [2000]}
        oracle = {"kind": "drifted_interval", "coeffs": ["2"], "drift_slope": "1", "rtol": "0.002"}
        cfg = small_square_config(
            tmp_path,
            domain=interval,
            tensor={"kind": "identity", "scale": "2"},
            drift={"kind": "affine", "coeffs": ["1"]},
            bounds={"theorems": ["thm11"], "k_range": [2, 9]},
            oracle=oracle,
        )
        assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["oracle_error"] <= 1e-4

    def test_negative_control_exit_one(self, tmp_path):
        cfg = small_square_config(
            tmp_path,
            bounds={"theorems": ["thm11"], "k_range": [2, 8], "c_scale": "1e-6"},
        )
        assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_unknown_check_exit_3(self, tmp_path):
        cfg = small_square_config(tmp_path)
        assert main(["verify", str(cfg), "--checks", "nonsense"]) == 3

    def test_out_wins_over_the_config_output_dir(self, tmp_path):
        cfg = small_square_config(tmp_path, output_dir=str(tmp_path / "from_config"))
        assert main(["verify", str(cfg), "--checks", "gap", "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "summary.json").is_file() and not (tmp_path / "from_config").exists()

    def test_degenerate_rows_skipped_exit_zero(self, tmp_path):
        # cor32 on the square skips multiplet rows but still exits 0
        cfg = small_square_config(tmp_path, verify=["gap", "cor32"])
        assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("resolution", [22, 26])
    def test_parseval_on_a_large_box_exit_zero(self, tmp_path, resolution):
        # ||x_1||_B^2 ~ 3.3e7 on [0, 100]^2; the gate reads the defect relative
        # to it, so a box's scale alone cannot turn rounding into a failure
        cfg = small_square_config(
            tmp_path,
            domain={"bounds": [["0", "100"], ["0", "100"]], "resolution": [resolution] * 2},
            solver={"k": "full"},
            bounds={},
            verify=["parseval"],
        )
        assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert abs(summary["parseval_defect"]) <= 1e-10

    @pytest.mark.parametrize("slope", ["800", "-800"])
    @pytest.mark.parametrize(
        "solver",
        [{"k": "full", "method": "dense"}, {"k": 6}],
        ids=["dense", "auto"],
    )
    def test_out_of_range_measure_weight_run_failed(self, tmp_path, capsys, slope, solver):
        # e^(-800 x_1) underflows and e^(800 x_1) overflows on [0, pi]^2
        cfg = small_square_config(
            tmp_path,
            domain={"bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]], "resolution": [12, 12]},
            drift={"kind": "affine", "coeffs": [slope, "0"]},
            solver=solver,
            bounds={},
            verify=[],
        )
        assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "run failed: NonFiniteValue: measure weight" in err and "Traceback" not in err


class TestLemma31Command:
    def test_seeded_run_exit_zero(self, capsys):
        assert main(["lemma31", "--trials", "3000", "--seed", "5"]) == 0
        out = capsys.readouterr()
        assert "counterexamples=0" in out.err

    def test_zero_trials_exit_3(self, capsys):
        assert main(["lemma31", "--trials", "0"]) == 3
        assert "usage error:" in capsys.readouterr().err

    def test_negative_seed_exit_3(self, capsys):
        assert main(["lemma31", "--seed", "-1"]) == 3
        assert "usage error:" in capsys.readouterr().err

    def test_counterexample_lines_are_unpadded(self, capsys, every_conclusion_fails):
        assert main(["lemma31", "--trials", "40", "--seed", "3"]) == 1
        mu, r, length, m1 = bounds._draw_lemma31(np.random.default_rng(3), 40)
        hypothesis_ok = bounds._lemma31_rows(mu, r, m1)[0]
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [len(line["mu"]) for line in lines] == list(length[hypothesis_ok])
        assert [len(line["r"]) for line in lines] == list(length[hypothesis_ok])
        for line in lines:
            res = bounds.lemma31_check(bounds.Lemma31Instance(tuple(line["mu"]), tuple(line["r"])))
            assert (res.s, res.bound) == (line["s"], line["bound"])

    def test_rerun_identical_stream(self, capsys):
        main(["lemma31", "--trials", "500", "--seed", "11"])
        first = capsys.readouterr()
        main(["lemma31", "--trials", "500", "--seed", "11"])
        second = capsys.readouterr()
        assert first.err == second.err
        assert first.out == second.out


class TestReportCommand:
    def test_render_summary(self, tmp_path, capsys):
        cfg = small_square_config(tmp_path)
        main(["verify", str(cfg), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        code = main(["report", str(tmp_path / "o" / "summary.json")])
        assert code == 0
        out = capsys.readouterr()
        assert "thm11" in out.err

    @pytest.mark.parametrize(
        "over, expected",
        [
            ({}, "solver: method = separable, axis_ndof = 47 x 47, max_residual = "),
            (
                {
                    "domain": {
                        "bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]],
                        "resolution": [32, 32],
                        "mask": {"kind": "ball", "center": ["1.5707963267948966", "1.5707963267948966"], "radius": "1.4"},
                    }
                },
                "solver: method = superlu, ordering = MMD_AT_PLUS_A, factor_nnz = ",
            ),
            (
                {"metric": "hyperbolic", "domain": {"bounds": [["0", "1"], ["1", "2"]], "resolution": [24, 24]}},
                "solver: method = fast_diagonalization, axis_ndof = 23 x 23, ncv = 28, op_applications = ",
            ),
            (
                {"domain": {"bounds": [["0", "1"], ["0", "1"]], "resolution": [12, 12]}, "solver": {"k": 6, "method": "dense"}},
                "solver: method = dense, band = 12, max_residual = ",
            ),
        ],
        ids=["separable", "superlu", "fast_diagonalization", "dense"],
    )
    def test_render_solver_block(self, tmp_path, capsys, over, expected):
        cfg = small_square_config(tmp_path, bounds={}, **over)
        assert main(["spectrum", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "o" / "summary.json")]) == 0
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith("  " + expected) and ", max_residual = " in line

    def test_missing_summary_exit_3(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 3

    @pytest.mark.parametrize(
        "summary",
        [
            [1, 2],
            {"counts": {"pass": 1}, "gap_reports": {"thm11": {"exponent": 1.0}}},
            {"counts": {"pass": 1}, "exit_code": "x"},
            {"counts": 5},
            {"counts": {"pass": 1}, "gap_reports": []},
            "{not json",
            {"counts": {"pass": 1}, "solver": [1]},
            {"counts": {"pass": 1}, "solver": {"ncv": 20}},
            {"counts": {"pass": 1}, "solver": {"method": "superlu", "factor_nnz": "12"}},
            {"counts": {"pass": 1}, "solver": {"method": "separable", "axis_ndof": [47, 4.5]}},
            {"counts": {"pass": 1}, "solver": {"method": "dense", "max_residual": "small"}},
            {"counts": {"pass": 1}, "solver": {"method": "fast_diagonalization", "ncv": True}},
            {"counts": {"pass": 1}, "solver": {"method": "dense", "band": 12.5}},
        ],
        ids=[
            "top_level_list",
            "gap_report_without_constant",
            "word_exit_code",
            "number_counts",
            "list_gap_reports",
            "bad_json",
            "list_solver",
            "solver_without_method",
            "word_factor_nnz",
            "fractional_axis_ndof",
            "word_max_residual",
            "bool_ncv",
            "fractional_band",
        ],
    )
    def test_malformed_summary_exit_3(self, tmp_path, capsys, summary):
        path = tmp_path / "summary.json"
        path.write_text(summary if isinstance(summary, str) else json.dumps(summary))
        assert main(["report", str(path)]) == 3
        assert "malformed summary" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exit_3(self):
        assert main([]) == 3

    def test_unknown_flag_exit_3(self):
        assert main(["spectrum", "square_laplacian", "--frobnicate"]) == 3


# a valid thm13 config on the half-plane, whose curvature is -1
HALF_PLANE_THM13 = {
    "metric": "hyperbolic",
    "domain": {"bounds": [["0", "1"], ["1", "2"]], "resolution": [16, 16]},
    "bounds": {"theorems": ["thm12", "thm13"], "k_range": [2, 6]},
}
THM13_INPUTS = {"H0": "1", "kappa1": "1", "kappa2": "1", "origin": ["0", "4"]}

MALFORMED_CONFIGS = {
    "constant_diag_without_entries": {"tensor": {"kind": "constant_diag"}},
    "diag_profile_one_entry_in_2d": {
        "tensor": {"kind": "diag_profile", "entries": [{"profile": "sin", "c0": "2", "c1": "0.5"}]}
    },
    "unknown_profile": {
        "tensor": {
            "kind": "diag_profile",
            "entries": [{"profile": "tan", "c0": "2"}, {"profile": "const", "c0": "2"}],
        }
    },
    "affine_without_coeffs": {"drift": {"kind": "affine"}},
    "bool_scale": {"tensor": {"kind": "identity", "scale": True}},
    "unknown_tensor_kind": {"tensor": {"kind": "wobbly"}},
    "word_as_decimal": {"drift": {"kind": "constant", "c": "two"}},
    "affine_coeffs_short": {"drift": {"kind": "affine", "coeffs": ["1"]}},
    "gaussian_center_short": {
        "drift": {"kind": "gaussian", "amplitude": "1", "center": ["1"], "width": "0.5"}
    },
    "constant_matrix_3x3_in_2d": {"tensor": {"kind": "constant", "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}},
    "constant_matrix_2x3": {"tensor": {"kind": "constant", "matrix": [["1", "0", "0"], ["0", "1", "0"]]}},
    "constant_diag_three_entries_in_2d": {"tensor": {"kind": "constant_diag", "entries": ["1", "2", "3"]}},
    "quadratic_quad_one_row": {"drift": {"kind": "quadratic", "quad": [["1", "0"]]}},
    "quadratic_quad_short_row": {"drift": {"kind": "quadratic", "quad": [["1", "0"], ["0"]]}},
    "quadratic_coeffs_long": {"drift": {"kind": "quadratic", "coeffs": ["1", "0", "0"]}},
    "affine_coeffs_as_string": {"drift": {"kind": "affine", "coeffs": "10"}},
    "unknown_solver_method": {"solver": {"k": 10, "method": "lanczos"}},
    # the pencil picks shift-invert; no config forces it
    "solver_method_shift_invert": {"solver": {"k": 10, "method": "shift_invert"}},
    # a misspelled key would otherwise leave its default in force
    **{
        f"unknown_key_{label}": over
        for label, over in {
            "top_level": {"verfy": ["gap"]},
            "domain": {"domain": {"bounds": [["0", "1"], ["0", "1"]], "resolution": [16, 16], "masks": {}}},
            "solver": {"solver": {"K": 3}},
            "bounds": {"bounds": {"theorems": ["thm11"], "krange": [2, 8]}},
            "constants": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "kappa": "1"}},
            "oracle": {"oracle": {"kind": "box", "rtool": "0.01"}},
        }.items()
    },
    "origin_three_entries_in_2d": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "origin": ["0", "4", "1"]}},
    "kappa_pins_above_curvature": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "kappa1": "0.2", "kappa2": "0.1"}},
    "kappa_pins_below_curvature": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "kappa1": "3", "kappa2": "3"}},
    "kappa2_above_kappa1": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "kappa1": "0.1", "kappa2": "0.2"}},
    "negative_kappa2": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "kappa2": "-1"}},
    "negative_H0": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "H0": "-1"}},
    # the name and the output directory are strings
    "name_number": {"name": 5},
    "output_dir_number": {"output_dir": 3},
    # every config real is finite
    "bounds_inf": {"domain": {"bounds": [["0", "inf"], ["0", "3.141592653589793"]], "resolution": [16, 16]}},
    "oracle_drift_slope_nan": {"oracle": {"kind": "box", "drift_slope": "nan", "rtol": "0.01"}},
    "oracle_drift_slope_inf": {"oracle": {"kind": "box", "drift_slope": "inf", "rtol": "0.01"}},
    "H0_inf": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "H0": "inf"}},
    "kappa1_inf": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "kappa1": "inf"}},
    "origin_nan": {**HALF_PLANE_THM13, "constants": {**THM13_INPUTS, "origin": ["0", "nan"]}},
    **{
        f"resolution_{label}": {
            "domain": {"bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]], "resolution": resolution}
        }
        for label, resolution in {"fraction": [16.7, 16], "string": ["16", 16], "bool": [True, 16], "negative": [-3, 16]}.items()
    },
    **{
        f"solver_{key}_{label}": {"solver": {"k": 10, "seed": 1, key: value}}
        for key, cases in {
            "k": {"fraction": 8.9, "string": "8", "bool": True, "zero": 0},
            "seed": {"fraction": 1.5, "string": "1", "bool": False, "negative": -1},
        }.items()
        for label, value in cases.items()
    },
    **{
        f"diag_profile_axis_{label}": {
            "tensor": {
                "kind": "diag_profile",
                "entries": [
                    {"profile": "sin", "c0": "2", "c1": "0.5", "axis": axis},
                    {"profile": "const", "c0": "2"},
                ],
            }
        }
        for label, axis in {"too_large": 5, "negative": -1, "fraction": 1.7, "string": "1", "bool": True}.items()
    },
    **{
        f"k_range_{label}": {"bounds": {"theorems": ["thm11"], "k_range": k_range}}
        for label, k_range in {
            "reversed": [6, 2],
            "one_entry": [2],
            "empty": [],
            "three_entries": [2, 5, 9],
            "from_one": [1, 5],
            "fraction": [2, 5.5],
            "decimal_strings": ["2", "5"],
        }.items()
    },
    # tolerances and the bound scale are finite and > 0; an oracle's rtol is finite and >= 0,
    # its lengths and coefficients finite and > 0
    **{
        f"{key}_{label}": {"solver": {"k": 10, "seed": 1, key: value}}
        for key in ("solve_tol", "ortho_tol")
        for label, value in {"negative": "-1", "zero": "0", "nan": "nan", "inf": "inf"}.items()
    },
    **{
        f"c_scale_{label}": {"bounds": {"theorems": ["thm11"], "k_range": [2, 8], "c_scale": value}}
        for label, value in {"zero": "0", "negative": "-1e-6", "nan": "nan", "inf": "inf"}.items()
    },
    **{
        f"oracle_rtol_{label}": {"oracle": {"kind": "box", "rtol": value}}
        for label, value in {"negative": "-1", "nan": "nan", "inf": "inf"}.items()
    },
    "oracle_length_zero": {"oracle": {"kind": "box", "lengths": ["0", "3.141592653589793"], "rtol": "0.01"}},
    "oracle_length_inf": {"oracle": {"kind": "box", "lengths": ["inf", "3.141592653589793"], "rtol": "0.01"}},
    "oracle_coeff_negative": {"oracle": {"kind": "anisotropic", "coeffs": ["-2", "3"], "rtol": "0.01"}},
    "oracle_coeff_nan": {"oracle": {"kind": "anisotropic", "coeffs": ["nan", "3"], "rtol": "0.01"}},
    # an oracle must match the domain: one length and coefficient per axis, intervals in 1-D only
    "anisotropic_oracle_one_coeff": {"oracle": {"kind": "anisotropic", "coeffs": ["2"], "rtol": "0.01"}},
    "box_oracle_one_length": {"oracle": {"kind": "box", "lengths": ["3.141592653589793"], "rtol": "0.01"}},
    "interval_oracle_on_square": {"oracle": {"kind": "interval", "rtol": "0.01"}},
    **{
        f"{label}_mask_short": {
            "domain": {
                "bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]],
                "resolution": [48, 48],
                "mask": mask,
            }
        }
        for label, mask in {
            "ball": {"kind": "ball", "center": ["0"], "radius": "1"},
            "box": {"kind": "box", "lo": ["-0.5"], "hi": ["0.5"]},
        }.items()
    },
    # a preset's kind picks the table of its parameters, read as every other key is: no unknown key, every real finite
    "affine_misspelled_c0": {"drift": {"kind": "affine", "coeffs": ["1", "0"], "C0": "5"}},
    "diag_profile_misspelled_c1": {
        "tensor": {"kind": "diag_profile", "entries": [{"profile": "sin", "c0": "2", "c_1": "1"}, {"c0": "2"}]}
    },
    "identity_misspelled_scale": {"tensor": {"kind": "identity", "scal": "2"}},
    "quadratic_scale": {"drift": {"kind": "quadratic", "scale": "2"}},
    "constant_diag_inf": {"tensor": {"kind": "constant_diag", "entries": ["1", "inf"]}},
    "diag_profile_c1_nan": {
        "tensor": {"kind": "diag_profile", "entries": [{"profile": "sin", "c0": "2", "c1": "nan"}, {"c0": "2"}]}
    },
    "gaussian_width_zero": {"drift": {"kind": "gaussian", "amplitude": "1", "center": ["1", "1"], "width": "0"}},
    "identity_scale_negative": {"tensor": {"kind": "identity", "scale": "-1"}},
    **{
        f"mask_{label}": {
            "domain": {
                "bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]],
                "resolution": [48, 48],
                "mask": mask,
            }
        }
        for label, mask in {
            "ball_misspelled_radius": {"kind": "ball", "center": ["1.5", "1.5"], "radius": "1", "raduis": "2"},
            "all_with_radius": {"kind": "all", "radius": "1"},
            "ball_radius_inf": {"kind": "ball", "center": ["1.5", "1.5"], "radius": "inf"},
            "box_lo_above_hi": {"kind": "box", "lo": ["2", "0.5"], "hi": ["1", "2.5"]},
            "box_lo_equals_hi": {"kind": "box", "lo": ["0.5", "1.5"], "hi": ["2.5", "1.5"]},
        }.items()
    },
    # preset values wrong on their face, which assembly would refuse
    "constant_matrix_not_symmetric": {"tensor": {"kind": "constant", "matrix": [["1", "0.5"], ["0", "1"]]}},
    "constant_matrix_indefinite": {"tensor": {"kind": "constant", "matrix": [["1", "2"], ["2", "1"]]}},
    **{
        f"diag_profile_constant_{label}": {
            "tensor": {"kind": "diag_profile", "entries": [entry, {"profile": "sin", "c0": "2", "c1": "0.5"}]}
        }
        for label, entry in {
            "c0_zero": {"profile": "const", "c0": "0"},
            "c0_negative_c1_zero": {"profile": "sin", "c0": "-1", "c1": "0"},
        }.items()
    },
}


# a block of the wrong JSON type -> (the name the error must give, config override);
# none may reach an attribute lookup or be iterated as a string
WRONG_TYPE_BLOCKS = {
    "diag_profile_entries_not_objects": ("entries", {"tensor": {"kind": "diag_profile", "entries": ["x", "y"]}}),
    "diag_profile_entries_string": ("entries", {"tensor": {"kind": "diag_profile", "entries": "xy"}}),
    "mask_string": (
        "mask",
        {
            "domain": {
                "bounds": [["0", "3.141592653589793"], ["0", "3.141592653589793"]],
                "resolution": [48, 48],
                "mask": "all",
            }
        },
    ),
    "solver_array": ("solver", {"solver": [4]}),
    "bounds_array": ("bounds", {"bounds": []}),
    "verify_string": ("verify", {"verify": "gap"}),
    "constants_array": ("constants", {"constants": []}),
    "theorems_string": ("theorems", {"bounds": {"theorems": "thm11", "k_range": [2, 8]}}),
    "tensor_string": ("tensor", {"tensor": "identity"}),
    "drift_array": ("drift", {"drift": []}),
    "oracle_string": ("oracle", {"oracle": "box"}),
}


# overrides of a builtin that must be refused before assembly
MALFORMED_FLAGS = {
    "k_not_a_number": ["--k", "abc"],
    "k_flag_fraction": ["--k", "8.9"],
    "k_flag_negative": ["--k", "-2"],
    "k_flag_zero": ["--k", "0"],
    "seed_flag_negative": ["--seed", "-1"],
    "solve_tol_flag_negative": ["--solve-tol", "-1"],
    "ortho_tol_flag_nan": ["--ortho-tol", "nan"],
}


@pytest.mark.parametrize(
    "case",
    [*MALFORMED_CONFIGS, *WRONG_TYPE_BLOCKS, *MALFORMED_FLAGS, "resolution_one"],
)
def test_malformed_input_exit_3(tmp_path, capsys, monkeypatch, case):
    if case in MALFORMED_CONFIGS or case in WRONG_TYPE_BLOCKS or case in MALFORMED_FLAGS:

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled although the config is malformed")

        monkeypatch.setattr(assembly, "assemble", no_assembly)
    if case in MALFORMED_FLAGS:
        argv = ["verify", "hyperbolic_cy", *MALFORMED_FLAGS[case]]
    elif case == "resolution_one":
        argv = ["verify", "square_laplacian", "--resolution", "1"]
    elif case in WRONG_TYPE_BLOCKS:
        argv = ["verify", str(small_square_config(tmp_path, **WRONG_TYPE_BLOCKS[case][1]))]
    else:
        argv = ["verify", str(small_square_config(tmp_path, **MALFORMED_CONFIGS[case]))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "config error:" in err
    if case in ("resolution_negative", "resolution_one"):  # the validator's range check, not numpy's array error
        assert "resolution must be >= 2 per axis" in err
    if case in WRONG_TYPE_BLOCKS:
        assert f"{WRONG_TYPE_BLOCKS[case][0]} must be a" in err


@pytest.mark.parametrize("verify", [["gap"], ["gap", "yang"]])
def test_an_overflowing_bound_constant_is_one_error_line(tmp_path, capsys, verify):
    # H0 = 1e300 is finite, but H0^2 overflows: the gap and yang checks each give one error line, not a traceback
    over = {**HALF_PLANE_THM13, "bounds": {"theorems": ["thm12"], "k_range": [2, 6]}, "constants": {"H0": "1e300"}}
    cfg = small_square_config(tmp_path, **over, verify=verify)
    assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("ERROR")]
    assert len(errors) == len(verify) and errors[0].startswith("ERROR thm12: ValueError: the thm12 constant overflows: ")
    assert all(line.startswith("ERROR yang: OverflowError: ") for line in errors[1:])
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["gap_reports"] == {}


def test_malformed_oracle_exit_3_before_assembly(tmp_path, capsys, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled although the oracle block is malformed")

    monkeypatch.setattr(assembly, "assemble", no_assembly)
    cfg = small_square_config(tmp_path, oracle={"kind": "box", "lengths": ["x", "y"]})
    assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "config error:" in capsys.readouterr().err


# each entry of the check registry, in report order, and the function it calls when it runs
ENTRY_CALLEES = {
    "thm11": (bounds, "gap_check"),
    "yang": (bounds, "yang_check"),
    "cor32": (bounds, "cor32_check"),
    "lemma32": (bounds, "lemma32_check"),
    "parseval": (spectral, "parseval_defect"),
    "oracle": (scenario, "oracle_eigenvalues"),
}


@pytest.mark.parametrize("entry", ENTRY_CALLEES)
def test_a_raising_check_is_one_error_line(tmp_path, capsys, monkeypatch, entry):
    # every entry runs under one error rule: its error is one line, and the other checks' rows still count
    oracle = {"kind": "box", "lengths": ["3.141592653589793"] * 2, "rtol": "0.05"}
    path = small_square_config(tmp_path, verify=["gap", "yang", "cor32", "lemma32", "parseval"], oracle=oracle)
    clean = scenario.run_scenario(scenario.load_config(str(path)), write=False)
    assert [name for name, _ in scenario.checks(clean.config)] == list(ENTRY_CALLEES)
    assert not clean.errors and all(clean.rows[name] for name in ENTRY_CALLEES)

    def raising(*args, **kwargs):
        raise InsufficientSpectrum("patched")

    monkeypatch.setattr(*ENTRY_CALLEES[entry], raising)
    assert main(["verify", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"ERROR {entry}: InsufficientSpectrum: patched" in capsys.readouterr().err.splitlines()
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    expected = bounds.tally(clean.rows[entry], dict.fromkeys(("pass", "fail", "inconclusive", "info", "skipped"), 0))
    counts = clean.counts()
    assert summary["counts"] == {**{key: counts[key] - expected[key] for key in expected}, "errors": 1}
    assert summary["errors"] == [f"{entry}: InsufficientSpectrum: patched"]
