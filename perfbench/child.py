"""One benchmark sample: a fresh interpreter that runs one workload once.

Usage: child.py SPEC RESULT LAUNCH_TIME TRACE

SPEC is the JSON list of operations written by run.py, RESULT the JSON file
this process writes, LAUNCH_TIME the parent's ``time.monotonic()`` just
before it started this process, and TRACE 0 or 1.  The parent sets the BLAS
thread variables and PYTHONPATH before this interpreter starts.

Exit code 0 means the sample ran; whether its operations passed the
correctness gate is in RESULT.  Any other exit code means the sample could
not run (etagap missing, BLAS threads not pinned) and nothing was measured.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def thread_count() -> int:
    """Threads of this process, from /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no Threads line")


def gate(op: dict, rc, error) -> tuple[bool, str, float | None]:
    """(passed, reason, oracle_rel_err) for one finished operation."""
    if error is not None:
        return False, f"raised {error}", None
    if op["out"] is None:
        return rc == 0, "" if rc == 0 else f"lemma31 exit code {rc} (counterexamples or usage error)", None
    reasons = [] if rc == 0 else [f"exit code {rc}"]
    path = Path(op["out"]) / "summary.json"
    if not path.is_file():
        return False, "; ".join(reasons + ["no summary.json"]), None
    summary = json.loads(path.read_text(encoding="utf-8"))
    bad = sorted(name for name, (ok, _margin) in summary["validation"].items() if not ok)
    if bad:
        reasons.append(f"validation failed: {', '.join(bad)}")
    counts = summary["counts"]
    if counts["fail"] or counts["errors"]:
        reasons.append(f"{counts['fail']} fail rows, {counts['errors']} errors {summary['errors']}")
    oracle = summary["oracle_error"]
    if op["oracle_rtol"] is not None and not (oracle is not None and oracle <= op["oracle_rtol"]):
        reasons.append(f"oracle_rel_err {oracle} above rtol {op['oracle_rtol']}")
    return not reasons, "; ".join(reasons), oracle


def main(spec_path: str, result_path: str, launch: float, trace: bool) -> int:
    import etagap
    import etagap.cli
    import etagap.scenario

    ops = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    for op in ops:
        if op["config"] is not None:
            etagap.scenario.load_config(op["config"])
    setup_s = time.monotonic() - launch

    threads = thread_count()
    if threads != 1:
        print(f"BLAS pin did not hold: {threads} threads after import", file=sys.stderr)
        return 2
    for op in ops:
        if op["out"] is not None:
            shutil.rmtree(op["out"], ignore_errors=True)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    start = time.perf_counter()
    for run, op in enumerate(ops):
        if tracer is not None:
            tracer.run = run
        try:
            outcomes.append((etagap.cli.main(op["argv"]), None))
        except Exception as exc:  # counted as a failed operation, with its reason
            outcomes.append((None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
    verify_s = time.perf_counter() - start

    results = []
    for op, (rc, error) in zip(ops, outcomes):
        ok, reason, oracle = gate(op, rc, error)
        results.append({"label": op["label"], "ok": ok, "reason": reason, "oracle_rel_err": oracle})

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "verify_s": verify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threads,
        "etagap_file": etagap.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
        "ops": results,
        "spans": tracer.spans if tracer is not None else None,
        "counts": tracer.counts if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    spec, out, launch, trace = sys.argv[1:5]
    raise SystemExit(main(spec, out, float(launch), trace == "1"))
