"""Spans around the public functions of each etagap module.

The benchmark records spans from its own files: ``install`` replaces each
function listed in TARGETS by a wrapper on the module attribute its
callers resolve.  ``scenario`` calls ``assembly.assemble`` and friends
through the module, ``assembly`` calls ``tensor_eigen_range`` through its
own by-name import from ``fields``, and ``cli`` imports scenario and
bounds names at call time, so patching these attributes catches every
call the pipeline makes.  Spans stay in memory as
[name, start, end, parent index, run id] until the run ends.

Importing this module imports nothing from etagap.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, function) pairs; the span name is "<module>.<function>".
TARGETS = (
    ("cli", "main"),
    ("scenario", "load_config"),
    ("scenario", "build_problem"),
    ("scenario", "run_scenario"),
    ("scenario", "collect_constants"),
    ("geometry", "make_box_domain"),
    ("assembly", "assemble"),
    ("assembly", "tensor_eigen_range"),
    ("assembly", "project_function"),
    ("fields", "compute_C0"),
    ("fields", "compute_T0"),
    ("fields", "tensor_bounds"),
    ("fields", "compute_eta_radial_constants"),
    ("fields", "validate_radially_constant"),
    ("spectral", "solve_lowest"),
    ("spectral", "validate_spectrum"),
    ("spectral", "parseval_defect"),
    ("spectral", "export_spectrum_csv"),
    ("bounds", "gap_check"),
    ("bounds", "yang_check"),
    ("bounds", "cor32_check"),
    ("bounds", "random_lemma31_instance"),
    ("bounds", "lemma31_check"),
    ("bounds", "lemma32_check"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)


def _count_assemble(counts, args, pair):
    counts["assembly.nnz_A"] += int(pair.A.nnz)


def _count_solve(counts, args, result):
    counts["spectral.ndof"] += int(args[0].ndof)
    counts["spectral.eigenpairs"] += result.k
    counts["spectral.max_residual"] = max(counts["spectral.max_residual"], float(result.residuals.max()))


def _count_rows(counts, args, result):
    # gap and yang reports hold .rows, cor32 returns a list, lemma32 one row
    rows = result if isinstance(result, list) else getattr(result, "rows", (result,))
    counts["bounds.verdict_rows"] += len(rows)


def _count_lemma31(counts, args, result):
    counts["bounds.lemma31_trials"] += 1
    counts["bounds.lemma31_useful"] += int(result.hypothesis_ok)


OBSERVERS = {
    "assembly.assemble": _count_assemble,
    "spectral.solve_lowest": _count_solve,
    "bounds.gap_check": _count_rows,
    "bounds.yang_check": _count_rows,
    "bounds.cor32_check": _count_rows,
    "bounds.lemma31_check": _count_lemma31,
    "bounds.lemma32_check": _count_rows,
}
COUNT_NAMES = (
    "assembly.nnz_A",
    "spectral.ndof",
    "spectral.eigenpairs",
    "spectral.max_residual",
    "bounds.verdict_rows",
    "bounds.lemma31_trials",
    "bounds.lemma31_useful",
)


class Tracer:
    """Collects spans and counts for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.run = 0
        self._stack = []

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.run]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every TARGETS attribute by its traced wrapper."""
        for mod, fn in TARGETS:
            module = importlib.import_module(f"etagap.{mod}")
            name = f"{mod}.{fn}"
            setattr(module, fn, self.wrap(name, getattr(module, fn), OBSERVERS.get(name)))


def self_times(spans) -> dict:
    """Total self time per span name: duration minus time covered by children.

    The pipeline is single-threaded, so sibling spans never overlap and the
    part of a parent covered by its children is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _parent, _run), cov in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - cov
    return out


def nesting_errors(spans) -> list:
    """Spans that are unfinished or lie outside their parent (empty if none)."""
    errors = []
    for i, (name, start, end, parent, run) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} {name} has no valid end")
        elif parent >= 0:
            pname, pstart, pend, _pp, prun = spans[parent]
            if parent >= i or prun != run or start < pstart or pend is None or end > pend:
                errors.append(f"span {i} {name} is not inside its parent {parent} {pname}")
    return errors
