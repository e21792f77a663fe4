"""Seeded workload generator for the etagap benchmark.

A workload is a list of operations, each one call of ``etagap.cli.main``:
``verify <config.json> --out <dir>`` or ``lemma31 --trials N --seed S``.
Everything random (sweep coefficients, solver seeds, the lemma31 seed)
comes from the workload seed, so one seed always gives the same configs.
The program under test only ever sees the generated JSON files and CLI
arguments.

``toy=True`` shrinks every workload to a size that runs in well under a
second; the self-check uses it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 0
PI = "3.141592653589793"

# One line each; BENCHMARK.json repeats these as the workloads' "why".
WHY = {
    "square_fine": "square_laplacian 256^2, k=12: shift-invert factor and ARPACK dominate; ordering and factor reuse must show here",
    "halfspace_sweep": "16 seeded half-space thm12 configs on one 64^2 mesh: nonzero c0 and t0, constants and assembly ~45%",
    "full_spectrum": "lemma32_square 40^2 dense full spectrum plus 10000 lemma31 trials: bypasses shift-invert and constants",
}
NAMES = tuple(WHY)


def _square(name, resolution, k, seed, checks=("gap", "yang", "cor32", "parseval"), c_scale="1"):
    """The shipped square_laplacian scenario at another size, k and seed."""
    return {
        "name": name,
        "metric": "euclidean",
        "domain": {"bounds": [["0", PI], ["0", PI]], "resolution": [resolution] * 2, "mask": {"kind": "all"}},
        "tensor": {"kind": "identity"},
        "drift": {"kind": "zero"},
        "solver": {"k": k, "solve_tol": "1e-9", "ortho_tol": "1e-8", "seed": seed},
        "bounds": {"theorems": ["thm11"], "k_range": [2, 10], "c_scale": c_scale},
        "verify": list(checks),
        "oracle": {"kind": "box", "lengths": [PI, PI], "rtol": "0.01"},
    }


def _halfspace(name, resolution, rng):
    """Half-space box with a sin-profile diagonal tensor and affine x1 drift.

    Both depend on x1 only and T is diagonal, so the thm12 hypotheses
    (radially constant fields, T(d_n) parallel to d_n) hold for every draw.
    """
    entries = [
        {"profile": "sin", "c0": repr(rng.uniform(2.0, 4.0)), "c1": repr(rng.uniform(0.2, 1.0)), "axis": 0}
        for _ in range(2)
    ]
    return {
        "name": name,
        "metric": "hyperbolic",
        "domain": {"bounds": [["0", "1"], ["1", "2"]], "resolution": [resolution] * 2, "mask": {"kind": "all"}},
        "tensor": {"kind": "diag_profile", "entries": entries},
        "drift": {"kind": "affine", "coeffs": [repr(rng.uniform(0.2, 1.5)), "0"]},
        "solver": {"k": 8, "solve_tol": "1e-9", "ortho_tol": "1e-8", "seed": rng.randrange(1, 2**31)},
        "bounds": {"theorems": ["thm12"], "k_range": [2, 6]},
        "constants": {"H0": "1"},
        "verify": ["gap", "yang", "cor32"],
    }


def _lemma32(resolution, seed):
    """The shipped lemma32_square scenario (dense, k = full) at another size."""
    return {
        "name": "lemma32_square",
        "metric": "euclidean",
        "domain": {"bounds": [["0", PI], ["0", PI]], "resolution": [resolution] * 2, "mask": {"kind": "all"}},
        "tensor": {"kind": "identity"},
        "drift": {"kind": "zero"},
        "solver": {"k": "full", "method": "dense", "solve_tol": "1e-8", "ortho_tol": "1e-8", "seed": seed},
        "bounds": {},
        "verify": ["lemma32", "parseval"],
    }


def configs(workload: str, seed: int, toy: bool = False) -> tuple[list, int | None]:
    """(scenario configs, lemma31 trials or None) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "square_fine":
        return [_square("square_fine", 64 if toy else 256, 12, rng.randrange(1, 2**31))], None
    if workload == "halfspace_sweep":
        return [_halfspace(f"halfspace_{i:02d}", 16 if toy else 64, rng) for i in range(4 if toy else 16)], None
    if workload == "full_spectrum":
        return [_lemma32(12 if toy else 40, rng.randrange(1, 2**31))], 500 if toy else 10000
    raise ValueError(f"unknown workload {workload!r}")


def negative_control() -> dict:
    """A scenario whose gap bound is scaled by 1e-6, so its gap rows must fail."""
    return _square("negative_control", 32, 8, 1, checks=("gap",), c_scale="1e-6")


def write_ops(workload: str, seed: int, work: Path, toy: bool = False, extra: list = ()) -> list:
    """Write the workload's configs under ``work`` and return its operations.

    Each operation is {"label", "argv", "config", "out", "oracle_rtol"};
    the last three are None for a lemma31 suite.
    """
    cfgs, trials = configs(workload, seed, toy)
    ops = []
    for cfg in [*cfgs, *extra]:
        path = work / "configs" / f"{cfg['name']}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        out = work / "out" / cfg["name"]
        rtol = float(cfg["oracle"]["rtol"]) if "oracle" in cfg else None
        ops.append(
            {"label": cfg["name"], "argv": ["verify", str(path), "--out", str(out)], "config": str(path), "out": str(out), "oracle_rtol": rtol}
        )
    if trials is not None:
        lemma_seed = random.Random(f"{workload}:{seed}:lemma31").randrange(2**31)
        ops.append(
            {"label": "lemma31", "argv": ["lemma31", "--trials", str(trials), "--seed", str(lemma_seed)], "config": None, "out": None, "oracle_rtol": None}
        )
    return ops
