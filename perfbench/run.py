"""etagap benchmark: time to a verdict on three seeded pipeline workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/``.  Each sample is a fresh interpreter
(child.py) that imports etagap, loads every config and calls
``etagap.cli.main`` once per operation of the workload.  Samples run one
after another (a closed loop with one caller) until the next one would end
after ``--seconds``.  Each child has OPENBLAS/OMP/MKL_NUM_THREADS=1 in its
environment from the start; a child that sees more than one thread after
import stops the run.

With ``--trace 0`` the last line of stdout is a JSON object holding the
median over samples of every end-to-end metric; with ``--trace 1`` the
samples alternate untraced and traced, and it holds the per-layer metrics
from the traced ones.  The lines before it print every metric with its
quartiles and sample count, each failed operation with its reason, and the
provenance of the run.  Work files go to ``.perfbench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120
END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class SampleError(RuntimeError):
    """A child could not run its sample; nothing from the run is reported."""


def per_layer_units() -> dict:
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "assembly.nnz_A": "count",
            "spectral.ndof": "count",
            "spectral.eigenpairs": "count",
            "spectral.max_residual": "1",
            "bounds.verdict_rows": "count",
            "bounds.lemma31_useful_share": "1",
            "trace.verify_s": "s",
            "trace.self_sum_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


def run_sample(work: Path, trace: bool) -> dict:
    """Start one child on the operations in ``work/ops.json`` and wait for it."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("ETAGAP_THREADS", None)
    log = work / "child.log"
    with open(log, "wb") as fh:
        launch = time.monotonic()
        argv = [sys.executable, str(HERE / "child.py"), str(work / "ops.json"), str(result), repr(launch), str(int(trace))]
        try:
            proc = subprocess.run(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise SampleError(f"sample exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise SampleError(f"sample exited with code {proc.returncode}:\n{tail}")
    sample = json.loads(result.read_text(encoding="utf-8"))
    if not Path(sample["etagap_file"]).is_relative_to(ROOT / "src"):
        raise SampleError(f"etagap was imported from {sample['etagap_file']}, not from {ROOT / 'src'}")
    return sample


def csv_digests(ops: list) -> dict:
    """SHA-256 of every spectrum.csv and gap_*.csv the operations wrote."""
    out = {}
    for op in ops:
        if op["out"] is None:
            continue
        folder = Path(op["out"])
        for path in [folder / "spectrum.csv", *sorted(folder.glob("gap_*.csv"))]:
            if path.is_file():
                out[f"{op['label']}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end(samples: list) -> dict:
    return {name: [s[name] for s in samples] for name in END_TO_END_UNITS}


def layer_values(sample: dict) -> dict:
    """Per-layer values of one traced sample."""
    selfs = spans.self_times(sample["spans"])
    values = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}.self_s"] = selfs.get(name, 0.0)
        values[f"{name}.calls"] = sum(1 for span in sample["spans"] if span[0] == name)
    counts = sample["counts"]
    for name in ("assembly.nnz_A", "spectral.ndof", "spectral.eigenpairs", "spectral.max_residual", "bounds.verdict_rows"):
        values[name] = counts[name]
    trials = counts["bounds.lemma31_trials"]
    values["bounds.lemma31_useful_share"] = counts["bounds.lemma31_useful"] / trials if trials else 0.0
    values["trace.verify_s"] = sample["verify_s"]
    values["trace.self_sum_s"] = sum(selfs.values())
    return values


def per_layer(traced: list, plain: list) -> dict:
    """Per-layer values of every traced sample.

    The overhead pairs each traced sample with the untraced one run just
    before it, so slow drift of the machine cancels.
    """
    rows = [layer_values(s) for s in traced]
    values = {name: [row[name] for row in rows] for name in rows[0]}
    values["trace.overhead_s"] = [t["verify_s"] - p["verify_s"] for p, t in zip(plain, traced)]
    return values


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def prepare(workload: str, seed: int, toy: bool = False, extra: list = ()) -> tuple[Path, list]:
    """Fresh work directory holding the workload's configs and ops.json."""
    work = WORK / (f"toy_{workload}" if toy else workload)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.write_ops(workload, seed, work, toy=toy, extra=extra)
    (work / "ops.json").write_text(json.dumps(ops, indent=2) + "\n", encoding="utf-8")
    return work, ops


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run samples until the next would end after ``seconds``; return everything measured."""
    work, ops = prepare(workload, seed)
    modes = (False, True) if trace else (False,)
    plain, traced, durations, digests = [], [], [], []
    start = time.monotonic()
    while True:
        mode = modes[(len(plain) + len(traced)) % len(modes)]
        t = time.monotonic()
        sample = run_sample(work, mode)
        durations.append(time.monotonic() - t)
        (traced if mode else plain).append(sample)
        digests.append(csv_digests(ops))
        enough = len(plain) + len(traced) >= len(modes)
        if enough and time.monotonic() - start + statistics.median(durations) > seconds:
            break
    return {"work": work, "ops": ops, "plain": plain, "traced": traced, "digests": digests}


def failures(samples: list) -> list:
    return [(i, op) for i, s in enumerate(samples) for op in s["ops"] if not op["ok"]]


def report(args, run: dict) -> dict:
    """Print every metric and the provenance; return the final JSON object."""
    plain, traced = run["plain"], run["traced"]
    everything = plain + traced
    attempted = sum(len(s["ops"]) for s in everything)
    failed = failures(everything)
    for i, op in failed:
        print(f"FAIL sample {i} op {op['label']}: {op['reason']}")

    print(f"workload {args.workload}  seed {args.seed}  samples {len(plain)} untraced, {len(traced)} traced")
    if args.trace:
        values, units = per_layer(traced, plain), per_layer_units()
    else:
        values, units = end_to_end(plain), END_TO_END_UNITS
    metrics = {}
    stats = {}
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": units[name]}
        stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "values": vals}
        print(f"  {name:<48} {med:.6g} {units[name]}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})")
    oracle = [op["oracle_rel_err"] for s in everything for op in s["ops"] if op["oracle_rel_err"] is not None]
    if oracle:
        print(f"  {'oracle_rel_err':<48} {max(oracle):.6g} 1  (largest over {len(oracle)} operations)")
    print(f"  {'fail_share':<48} {len(failed) / attempted:.6g} 1  ({len(failed)} of {attempted} operations)")

    last = run["digests"][-1]
    reference = json.loads((HERE / "reference_digests.json").read_text(encoding="utf-8")).get(args.workload)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": workloads.DEFAULT_SEED,
        "run_seconds": args.seconds,
        "samples": len(plain),
        "traced_samples": len(traced),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "versions": everything[0]["versions"],
        "blas_threads": sorted({s["threads"] for s in everything}),
        "git": git_state(),
        "trace_overhead_s": stats.get("trace.overhead_s", {}).get("median"),
        "csv_sha256": last,
        "csv_identical_across_samples": all(d == last for d in run["digests"]),
        "csv_matches_reference": last == reference if args.seed == workloads.DEFAULT_SEED and reference else None,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    full = {**provenance, "stats": stats}
    (run["work"] / "report.json").write_text(json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def self_check() -> list:
    """Toy-size run of every workload; returns a list of problems (empty if none)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.NAMES:
        work, _ops = prepare(workload, workloads.DEFAULT_SEED, toy=True)
        plain, traced = run_sample(work, False), run_sample(work, True)
        for i, op in failures([plain, traced]):
            problems.append(f"{workload}: op {op['label']} failed the gate: {op['reason']}")
        e2e, layers = end_to_end([plain]), per_layer([traced], [plain])
        for kind, emitted in (("end_to_end", e2e), ("per_layer", layers)):
            want = {m["name"] for m in declared[kind]}
            if set(emitted) != want:
                problems.append(f"{workload}: {kind} emitted {sorted(set(emitted) ^ want)} differently from BENCHMARK.json")
        problems += [f"{workload}: {err}" for err in spans.nesting_errors(traced["spans"])]
        problems += [f"{workload}: {name} = {vals[0]} < 0" for name, vals in layers.items() if name.endswith(".self_s") and vals[0] < 0]
        total, window = layers["trace.self_sum_s"][0], layers["trace.verify_s"][0]
        if abs(total - window) > 0.02 * window + 0.005:
            problems.append(f"{workload}: self times sum to {total:.4f} s but traced verify_s is {window:.4f} s")
        print(f"self-check {workload}: {len(traced['spans'])} spans, verify_s {plain['verify_s']:.3f} s, traced {window:.3f} s")

    work, _ops = prepare("square_fine", workloads.DEFAULT_SEED, toy=True, extra=[workloads.negative_control()])
    failed = {op["label"] for _i, op in failures([run_sample(work, False)])}
    if failed != {"negative_control"}:
        problems.append(f"negative control: failed operations were {sorted(failed)}, expected only negative_control")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run every workload at toy size and check the benchmark itself")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")

    package = ROOT / "src" / "etagap"
    if not package.is_dir():
        print(f"no etagap package at {package}", file=sys.stderr)
        return 2
    # an installed package is byte-compiled; compile here so the first sample pays no more than later ones
    compileall.compile_dir(package, quiet=1)
    try:
        if args.self_check:
            problems = self_check()
            for p in problems:
                print(f"SELF-CHECK FAIL {p}")
            print("self-check " + ("failed" if problems else "ok"))
            return 1 if problems else 0
        result = report(args, measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    except SampleError as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
