"""Spans around the calls into each lrcodes layer, and a field-op counter.

The tracer replaces module attributes with timing wrappers: the entry
points the benchmark calls, and each reference one module holds to
another layer's public function (``lrcodes.repair.row_reduce`` is
linalg's ``row_reduce`` as the repair module sees it).  A function that
looks up such a name at call time then calls the wrapper, so nothing
under ``src/`` changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from math import comb
from typing import Callable

# (module, attribute) pairs to wrap: the benchmark's own entry points
# first, then the cross-module references, then calls a module makes to
# its own public functions that the per-layer metrics split out.  A pair
# that a later version of lrcodes no longer has is skipped and reported.
TRACED_REFS = (
    ("construction", "validate_params"),
    ("construction", "build_code"),
    ("construction", "encode"),
    ("repair", "repair_coordinate"),
    ("repair", "decode_erasures"),
    ("verify", "run_verification"),
    ("cli", "load_spec_file"),
    ("construction", "find_subgroup"),
    ("construction", "coset_partition"),
    ("construction", "make_partition"),
    ("construction", "good_polynomial"),
    ("construction", "normalize_gamma"),
    ("construction", "rank"),
    ("repair", "interpolate_at"),
    ("repair", "row_reduce"),
    ("verify", "nullspace"),
    ("verify", "_rank"),
    ("verify", "encode"),
    ("verify", "extend_to_parent"),
    ("verify", "decode_erasures"),
    ("verify", "apply_erasures"),
    ("verify", "erasure_pattern"),
    ("cli", "validate_params"),
    ("repair", "locate_group"),
    ("repair", "repair_local"),
    ("verify", "matrix_rank"),
    ("verify", "brute_force_distance"),
    ("verify", "verify_locality"),
    ("verify", "verify_shortening"),
    ("verify", "exhaustive_erasure_test"),
)

def _decode_pattern(args, result):
    spec, received = args[0], args[1]
    return spec, tuple(j for j, v in enumerate(received) if v is None)


def _short_group(args, result):
    return bool(result[2])


def _enumerated(args, result):
    return result.enumerated_words


def _erasure_patterns(args, result):
    return comb(args[0].params.n, args[1])


# what a wrapper records about its call besides the span, by span name
OBSERVERS: dict[str, Callable] = {
    "repair.decode_erasures": _decode_pattern,
    "repair.locate_group": _short_group,
    "verify.run_verification": _enumerated,
    "verify.exhaustive_erasure_test": _erasure_patterns,
}


class Tracer:
    """Records spans [name, start, end, parent index, op id] in one list."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.observed: dict[str, list] = defaultdict(list)
        self.skipped: list[str] = []
        self._refs: list[tuple[object, str, Callable, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = OBSERVERS.get(name)
        observed = self.observed[name]

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observed.append(observe(args, result))
            return result

        return traced

    def attach(self, lr) -> None:
        """Build a wrapper for every reference in TRACED_REFS that lr has."""
        for module_name, attr in TRACED_REFS:
            module = getattr(lr, module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.skipped.append(f"lrcodes.{module_name}.{attr}")
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._refs.append((module, attr, fn, self.wrap(f"{layer}.{fn.__name__}", fn)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._refs:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._refs:
            setattr(module, attr, fn)


class SpanTable:
    """Durations and self times of recorded spans, grouped by name."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(
            self.dur[i]
            for i in self.by_name.get(name, ())
            if parent is None or (self.spans[i][3] >= 0 and self.spans[self.spans[i][3]][0] == parent)
        )

    def mean(self, name: str, scale: float) -> float:
        n = self.count(name)
        return self.total(name) / n * scale if n else 0.0

    def mean_self(self, name: str, scale: float) -> float:
        idx = self.by_name.get(name, ())
        return sum(self.self_time[i] for i in idx) / len(idx) * scale if idx else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_metrics(table: SpanTable, observed: dict[str, list], steps: int) -> dict[str, float]:
    """The per-layer metrics that come from spans and what the wrappers observed.

    Means are per call; a layer the workload never calls reads 0.
    verify.* times and counts are per step (for certify, per pass).
    """
    builds = table.count("construction.build_code")
    goodpoly = sum(
        table.total(name, parent="construction.build_code")
        for name in table.by_name
        if name.startswith("goodpoly.")
    )
    decode_s = table.total("repair.decode_erasures")
    patterns = observed.get("repair.decode_erasures", [])
    seen: set = set()
    reused = 0
    # the observed tuples hold each spec, so an id stays unique while counted
    for spec, pattern in patterns:
        key = (id(spec), pattern)
        reused += key in seen
        seen.add(key)
    shorts = observed.get("repair.locate_group", [])
    words = sum(observed.get("verify.run_verification", []))
    erasure_patterns = sum(observed.get("verify.exhaustive_erasure_test", []))
    distance_s = table.total("verify.brute_force_distance")
    erasure_s = table.total("verify.exhaustive_erasure_test")
    per_step = 1.0 / steps if steps else 0.0
    return {
        "field.interpolate_at_us": table.mean("field.interpolate_at", 1e6),
        "goodpoly.setup_ms": goodpoly / builds * 1e3 if builds else 0.0,
        "construction.build_self_s": table.mean_self("construction.build_code", 1.0),
        "construction.encode_us": table.mean("construction.encode", 1e6),
        "linalg.rank_ms": table.mean("linalg.rank", 1e3),
        "linalg.row_reduce_ms": table.mean("linalg.row_reduce", 1e3),
        "linalg.row_reduce_share": _share(
            table.total("linalg.row_reduce", parent="repair.decode_erasures"), decode_s
        ),
        "linalg.nullspace_ms": table.mean("linalg.nullspace", 1e3),
        "repair.locate_group_us": table.mean("repair.locate_group", 1e6),
        "repair.repair_local_self_us": table.mean_self("repair.repair_local", 1e6),
        "repair.decode_self_ms": table.mean_self("repair.decode_erasures", 1e3),
        "repair.short_group_share": _share(sum(shorts), len(shorts)),
        "repair.pattern_reuse_share": _share(reused, len(patterns)),
        "verify.rank_s": table.total("verify.matrix_rank") * per_step,
        "verify.distance_s": distance_s * per_step,
        "verify.words_per_s": _share(words, distance_s),
        "verify.locality_s": table.total("verify.verify_locality") * per_step,
        "verify.shortening_s": table.total("verify.verify_shortening") * per_step,
        "verify.erasure_s": erasure_s * per_step,
        "verify.patterns_per_s": _share(erasure_patterns, erasure_s),
        "verify.words_enumerated": words * per_step,
        "verify.erasure_patterns": erasure_patterns * per_step,
    }


class FieldOpCounter:
    """Counts Field.mul and Field.inv calls, charged to the op kind running.

    Field methods are too fine-grained to time; counting them is exact
    and repeats for a fixed seed.  Calls made inside other Field methods
    (inv by exponentiation, div) are counted too.
    """

    def __init__(self, field_cls) -> None:
        self.field_cls = field_cls
        self.kind: str | None = None
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: {"mul": 0, "inv": 0})
        self.calls: dict[str, int] = defaultdict(int)
        self.missing = [m for m in ("mul", "inv") if not callable(getattr(field_cls, m, None))]

    def _counting(self, method: str, fn: Callable) -> Callable:
        def counted(*args):
            if self.kind is not None:
                self.counts[self.kind][method] += 1
            return fn(*args)

        return counted

    def __enter__(self):
        self._saved = {m: getattr(self.field_cls, m) for m in ("mul", "inv") if m not in self.missing}
        for m, fn in self._saved.items():
            setattr(self.field_cls, m, self._counting(m, fn))
        return self

    def __exit__(self, *exc) -> None:
        for m, fn in self._saved.items():
            setattr(self.field_cls, m, fn)

    def per_call(self, kind: str, method: str) -> float:
        calls = self.calls.get(kind, 0)
        return self.counts[kind][method] / calls if calls else 0.0
