"""Per-layer tracing of doew's public functions, installed from outside the package.

Each traced function is replaced, in every doew module that holds a
reference to it, by a wrapper that records a span (request id, span id,
parent span id, name, start, end).  The modules bind names with
``from .x import ...``, so replacing only the defining module's attribute
would miss the calls made through those copies.  Classes are traced by
wrapping ``__init__`` on the class itself, which every constructor call
passes through whatever name it was looked up by.

Spans stay in memory while the workload runs and are written out at the
end.  A span's self time is its duration minus the durations of its direct
children: calls are single-threaded and nested, so the children never
overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: the layers and the public functions traced in each, in report order
TRACED = {
    "cli": ("main", "build_parser", "build_sweep_rows", "fr_companion_weights"),
    "states": ("MixtureWeights", "build_mixture", "phi_state"),
    "relativity": ("effective_angles", "wigner_half_angle", "wigner_rotation_oracle",
                   "wigner_matrix", "effective_boost_mixture"),
    "witness": ("kkt_witness", "correlation_matrix", "witness_operator",
                "separability_floor_check", "random_product_states"),
    "ppt": ("ppt_spectrum", "edge_state"),
    "measures": ("relativistic_witness_value", "entropy_formula", "hs_distance"),
    "linalg": ("partial_transpose", "require_hermitian"),
}

#: every module whose namespace may hold a reference to a traced function
SEARCHED_MODULES = ("doew",) + tuple(f"doew.{layer}" for layer in TRACED)

ROOT_SPAN = "request"

#: calls whose arguments are kept (by reference) for the ratio and byte metrics
OBSERVED = ("states.build_mixture", "witness.separability_floor_check")


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


def floor_check_bytes(samples: int, optimize_partner: bool) -> int:
    """Bytes of the stacked arrays one ``separability_floor_check`` call builds.

    Computed from the array shapes the function creates for ``samples``
    product states, not measured: two (n, 4) complex state stacks, the
    (n, 16) complex projection einsum result, and then either the
    optimized-partner path's (n, 16) real coefficients, (n, 4, 4) complex
    operators and (n, 4) real eigenvalues, or the plain path's second
    (n, 16) complex projection and (n,) real values.
    """
    n = samples
    total = 2 * n * 4 * 16 + n * 16 * 16
    if optimize_partner:
        total += n * 16 * 8 + n * 4 * 4 * 16 + n * 4 * 8
    else:
        total += n * 16 * 16 + n * 8
    return total


class Tracer:
    """Span recorder for one traced phase; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names = [ROOT_SPAN] + span_names()
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.observed: dict[str, list[tuple[int, tuple, dict]]] = defaultdict(list)
        self._signatures: dict[str, inspect.Signature] = {}
        self._stack = [0]
        self._next_id = 1
        self._request = -1
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in SEARCHED_MODULES]
        for index, qualified in enumerate(self.names[1:], start=1):
            layer, name = qualified.split(".")
            original = getattr(importlib.import_module(f"doew.{layer}"), name)
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self._wrap(init, index, qualified))
                continue
            self._signatures[qualified] = inspect.signature(original)
            wrapper = self._wrap(original, index, qualified)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, index: int, qualified: str):
        stack, spans = self._stack, self.spans
        observed = self.observed[qualified] if qualified in OBSERVED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observed is not None:
                observed.append((self._request, args, kwargs))
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self._request, span_id, parent, index, start, end))
        return traced

    @contextmanager
    def request(self, request_id: int):
        """Root span shared by every span one request causes."""
        self._request = request_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((request_id, span_id, 0, 0, start, end))

    # ------------------------------------------------------------- reports

    def _bound(self, qualified: str, args: tuple, kwargs: dict) -> dict:
        bound = self._signatures[qualified].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def layer_metrics(self, scales: dict[int, float]) -> dict[str, float]:
        """Per-request calls and self time of each traced function, plus the
        build_mixture repeat ratio and the floor check's computed bytes.

        ``scales`` maps each traced request id to the calibration factor of
        its interval; self times are scaled by it like request latencies.
        """
        requests = len(scales)
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for request_id, span_id, _, index, start, end in self.spans:
            calls[index] += 1
            self_s[index] += ((end - start) - child_time[span_id]) * scales[request_id]
        metrics = {}
        for index, qualified in enumerate(self.names[1:], start=1):
            metrics[f"{qualified}.calls"] = calls[index] / requests
            metrics[f"{qualified}.self_ms"] = 1e3 * self_s[index] / requests

        seen: dict[int, set] = defaultdict(set)
        repeats = 0
        mixtures = self.observed["states.build_mixture"]
        for request_id, args, kwargs in mixtures:
            arguments = self._bound("states.build_mixture", args, kwargs)
            weights = arguments["weights"]
            key = (weights.q.tobytes(), weights.parity, float(arguments["theta"]))
            repeats += key in seen[request_id]
            seen[request_id].add(key)
        metrics["states.build_mixture.repeat_ratio"] = (
            repeats / len(mixtures) if mixtures else 0.0)

        floor_bytes = 0
        for _, args, kwargs in self.observed["witness.separability_floor_check"]:
            arguments = self._bound("witness.separability_floor_check", args, kwargs)
            floor_bytes += floor_check_bytes(int(arguments["samples"]),
                                             bool(arguments["optimize_partner"]))
        metrics["witness.separability_floor_check.bytes_computed"] = floor_bytes / requests
        return metrics

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON: names, then rows of
        [request, span, parent, name index, start s, end s]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names,
                       "columns": ["request", "span", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
