"""Layer tracing from outside the program.

The tracer replaces the module-level names through which one muntzspec module
calls another (and the scipy LAPACK entry points the solvers import) with
wrappers that record a span: name, start, end and parent.  A layer's self
time is its span time minus the time its child spans cover.  Nothing inside
the package changes; `uninstall` restores every original name.
"""

from __future__ import annotations

import functools
import logging
import time
from collections import defaultdict

# (module, attribute, layer, key).  Lapack spans are their own layer so the
# calling solver's self time excludes them; their key names the owner.
WRAPPED = (
    ("assembly", "gauss_jacobi", "quadrature", "rule"),
    ("assembly", "gauss_jacobi_unit", "quadrature", "rule"),
    ("basis", "gauss_jacobi_unit", "quadrature", "rule"),
    ("mltune", "gauss_jacobi", "quadrature", "rule"),
    ("mltune", "gauss_jacobi_unit", "quadrature", "rule"),
    ("assembly", "jacobi_table", "basis", "table"),
    ("assembly", "spatial_table", "basis", "table"),
    ("solver1d", "muntz_jacobi_table", "basis", "table"),
    ("solver1d", "spatial_table", "basis", "table"),
    ("solver2d", "muntz_jacobi_table", "basis", "table"),
    ("solver2d", "spatial_table", "basis", "table"),
    ("solver1d", "assemble_spatial", "assembly", "spatial"),
    ("solver1d", "assemble_temporal", "assembly", "temporal"),
    ("solver1d", "assemble_forcing_1d", "assembly", "forcing"),
    ("solver2d", "assemble_spatial", "assembly", "spatial"),
    ("solver2d", "assemble_temporal", "assembly", "temporal"),
    ("solver2d", "assemble_forcing_2d", "assembly", "forcing"),
    ("solver1d", "solve_1d", "solver1d", "solve"),
    ("solver1d", "evaluate_grid", "solver1d", "evaluate"),
    ("mltune", "solve_1d", "solver1d", "solve"),
    ("mltune", "evaluate_grid", "solver1d", "evaluate"),
    ("solver1d", "lu_factor", "lapack", "solver1d"),
    ("solver1d", "lu_solve", "lapack", "solver1d"),
    ("solver2d", "qz", "lapack", "solver2d"),
    ("solver2d", "eigh", "lapack", "solver2d"),
    ("solver2d", "lu_factor", "lapack", "solver2d"),
    ("solver2d", "lu_solve", "lapack", "solver2d"),
    ("cli", "solve_2d", "solver2d", "solve"),
    ("cli", "error_norms_2d", "solver2d", "errors"),
    ("solver2d", "evaluate_grid_2d", "solver2d", "evaluate"),
    ("mltune", "train", "mltune", "train"),
    ("mltune", "sample_error", "mltune", "sample_error"),
    ("mltune", "load_model", "mltune", "model"),
    ("mltune", "load_spline", "mltune", "model"),
    ("mltune", "forward", "mltune", "model"),
    ("mltune", "spline_predict", "mltune", "model"),
    ("cli", "main", "cli", "main"),
    ("cli", "resolve_lambda", "cli", "resolve_lambda"),
)

PER_LAYER = (
    ("quadrature.self_s", "s"),
    ("quadrature.calls", "count"),
    ("quadrature.distinct_rules", "count"),
    ("basis.self_s", "s"),
    ("basis.calls", "count"),
    ("assembly.temporal_s", "s"),
    ("assembly.temporal_calls", "count"),
    ("assembly.forcing_s", "s"),
    ("assembly.spatial_s", "s"),
    ("solver1d.self_s", "s"),
    ("solver1d.lapack_s", "s"),
    ("solver1d.evaluate_s", "s"),
    ("solver1d.solves", "count"),
    ("solver2d.self_s", "s"),
    ("solver2d.lapack_s", "s"),
    ("solver2d.evaluate_s", "s"),
    ("solver2d.solves", "count"),
    ("solver2d.failed", "count"),
    ("mltune.self_s", "s"),
    ("mltune.sample_errors", "count"),
    ("mltune.excluded_samples", "count"),
    ("cli.self_s", "s"),
    ("cli.resolve_lambda_s", "s"),
    ("cli.calls", "count"),
    ("trace.overhead_s", "s"),
)


class _ExcludedCounter(logging.Handler):
    """Counts the 'sample ... excluded' warnings mltune logs."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "excluded" in record.getMessage():
            self.count += 1


class Tracer:
    """Records spans while installed; `layer_metrics` aggregates them."""

    def __init__(self, package) -> None:
        self._package = package
        self._originals: list[tuple[object, str, object]] = []
        # span: [layer, key, start, end, parent index, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._round = 0
        self.rule_keys: set[tuple] = set()
        self._excluded = _ExcludedCounter()

    def _wrap(self, func, layer: str, key: str):
        spans, stack = self.spans, self._stack
        is_rule = layer == "quadrature"
        is_lapack_lookup = func.__name__ == "get_lapack_funcs"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if is_rule:
                self.rule_keys.add((self._round, round(args[0], 14), round(args[1], 14), args[2]))
            span = [layer, key, 0.0, 0.0, stack[-1] if stack else -1, False]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if is_lapack_lookup:
                result = tuple(self._wrap(f, "lapack", key) for f in result)
            return result

        return wrapper

    def new_round(self) -> None:
        """Start a traced round; distinct rules are counted per round."""
        self._round += 1

    def record(self, layer: str, key: str, func) -> None:
        """Run func() as one span of its own layer, so that work the
        benchmark itself does inside a traced call is not charged to the
        enclosing layer."""
        self._wrap(func, layer, key)()

    def install(self) -> None:
        for module_name, attr, layer, key in WRAPPED + (
            ("solver1d", "get_lapack_funcs", "lapack", "solver1d"),
        ):
            module = getattr(self._package, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, key))
        logging.getLogger("muntzspec.mltune").addHandler(self._excluded)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        logging.getLogger("muntzspec.mltune").removeHandler(self._excluded)

    def layer_metrics(self, rounds: int, factor: float) -> dict[str, float]:
        """Per-round layer metrics; times are calibrated by factor."""
        child = [0.0] * len(self.spans)
        for layer, key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[tuple, float] = defaultdict(float)
        calls: dict[tuple, int] = defaultdict(int)
        failed: dict[tuple, int] = defaultdict(int)
        for i, (layer, key, start, end, _, bad) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            incl[layer, key] += end - start
            calls[layer, key] += 1
            failed[layer, key] += bad
        sec = factor / rounds
        out = {
            "quadrature.self_s": self_s["quadrature"] * sec,
            "quadrature.calls": calls["quadrature", "rule"] / rounds,
            "quadrature.distinct_rules": len(self.rule_keys) / rounds,
            "basis.self_s": self_s["basis"] * sec,
            "basis.calls": calls["basis", "table"] / rounds,
            "assembly.temporal_s": incl["assembly", "temporal"] * sec,
            "assembly.temporal_calls": calls["assembly", "temporal"] / rounds,
            "assembly.forcing_s": incl["assembly", "forcing"] * sec,
            "assembly.spatial_s": incl["assembly", "spatial"] * sec,
            "solver1d.self_s": self_s["solver1d"] * sec,
            "solver1d.lapack_s": incl["lapack", "solver1d"] * sec,
            "solver1d.evaluate_s": incl["solver1d", "evaluate"] * sec,
            "solver1d.solves": calls["solver1d", "solve"] / rounds,
            "solver2d.self_s": self_s["solver2d"] * sec,
            "solver2d.lapack_s": incl["lapack", "solver2d"] * sec,
            "solver2d.evaluate_s": incl["solver2d", "evaluate"] * sec,
            "solver2d.solves": calls["solver2d", "solve"] / rounds,
            "solver2d.failed": failed["solver2d", "solve"] / rounds,
            "mltune.self_s": self_s["mltune"] * sec,
            "mltune.sample_errors": calls["mltune", "sample_error"] / rounds,
            "mltune.excluded_samples": self._excluded.count / rounds,
            "cli.self_s": self_s["cli"] * sec,
            "cli.resolve_lambda_s": incl["cli", "resolve_lambda"] * sec,
            "cli.calls": calls["cli", "main"] / rounds,
        }
        return out
