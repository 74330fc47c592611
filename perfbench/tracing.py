"""Per-layer spans recorded from outside the library.

``install`` replaces every public function of the ``demazure`` layers
(each module's ``__all__``) by a wrapper, wherever the function is bound:
in its own module, in other ``demazure`` modules that imported it by
name, and in the package namespace.  Nothing under ``src/`` is edited;
the wrappers live only in the traced worker process.

A span is ``(name, parent, query, start, end)`` with ``parent`` the index
of the enclosing span (-1 at top level) and ``query`` the id of the
query being run (-1 during set-up).  Spans stay in memory until the
worker writes them out.  A layer's self time is the sum, over its spans,
of duration minus the duration of direct child spans.

The elementwise weight helpers are not wrapped: wrapping them doubled
the run time of the character workload, so their cost stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter

LAYERS = ("roots", "weyl", "characters", "growth", "branching", "sl3t", "cli")

UNWRAPPED = frozenset(
    {"add_weights", "sub_weights", "scale_weight", "is_dominant", "pairing"}
)

# Span name of the counter bookkeeping done after a hooked call returns.
# It is a child of the hooked span, so no layer's self time includes it.
HOOK = "trace.hook"


def _string_steps(i: int, char: dict) -> int:
    # Weights written by one operator application: m+1 for m >= 0 and
    # -1-m for m <= -2, where m = <mu, alpha_i^vee>.
    k = i - 1
    steps = 0
    for mu in char:
        m = mu[k]
        if m >= 0:
            steps += m + 1
        elif m <= -2:
            steps += -1 - m
    return steps


class Tracer:
    """Span recorder plus the counters that need a call's arguments."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.query = -1
        self.counts: Counter = Counter()
        self.peak_support = 0

    # counter hooks, keyed by span name; each runs after the call returns

    def _hook_demazure_operator(self, args, result) -> None:
        i, char = args[1], args[2]
        c = self.counts
        c["characters.operator_terms_in"] += len(char)
        c["characters.operator_terms_out"] += len(result)
        c["characters.string_steps"] += _string_steps(i, char)
        self.peak_support = max(self.peak_support, len(char), len(result))

    def _hook_reduced_word(self, args, result) -> None:
        self.counts["weyl.reduced_word_letters"] += len(result)

    def _hook_dimension_sequence(self, args, result) -> None:
        self.counts["growth.dims_computed"] += len(result.values)

    def _hook_restrict_to_levi(self, args, result) -> None:
        self.counts["branching.constituents"] += len(result.constituents)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = getattr(self, "_hook_" + name.split(".", 1)[1], None)
        count_letters = name == "weyl.demazure_fold"
        counts = self.counts

        # The bookkeeping is inlined rather than factored into helpers so
        # that it adds no Python frame while a RecursionError unwinds.
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so time spent by the consumer
            # between items is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    parent = stack[-1] if stack else -1
                    spans.append(None)
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[idx] = (name, parent, self.query, start, end)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_letters:
                letters = args[1]
                if not hasattr(letters, "__len__"):
                    letters = tuple(letters)
                    args = (args[0], letters, *args[2:])
                counts["weyl.fold_letters"] += len(letters)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, self.query, start, end)
            if hook is not None:
                hook(args, result)
                done = clock()
                spans[idx] = (name, parent, self.query, start, done)
                spans.append((HOOK, idx, self.query, end, done))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function wherever it is bound."""
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"demazure.{layer}")
            if module is None:
                continue
            for attr in module.__all__:
                obj = getattr(module, attr)
                # functions and memoized functions; not classes or type aliases
                if attr in UNWRAPPED or not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "demazure"]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per layer plus the hooked counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _q, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        named = Counter()
        freudenthal_s = 0.0
        build_s = 0.0
        for k, (name, _parent, query, start, end) in enumerate(spans):
            if name == HOOK:
                continue
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += end - start - child[k]
            out[f"{layer}.calls"] += 1
            named[name] += 1
            if name == "characters.freudenthal_multiplicity":
                freudenthal_s += end - start
            elif name == "roots.build_root_system" and query < 0:
                build_s += end - start
        out["weyl.left_descents_calls"] = named["weyl.left_descents"]
        out["characters.operator_calls"] = named["characters.demazure_operator"]
        out["characters.weyl_dim_calls"] = named["characters.weyl_dim"]
        out["characters.freudenthal_s"] = freudenthal_s
        out["characters.peak_support"] = self.peak_support
        out["roots.root_coordinates_calls"] = named["roots.root_coordinates"]
        out["roots.build_s"] = build_s
        out["sl3t.biweights"] = named["sl3t.mult_via_weights"]
        for key in (
            "weyl.fold_letters",
            "weyl.reduced_word_letters",
            "characters.operator_terms_in",
            "characters.operator_terms_out",
            "characters.string_steps",
            "growth.dims_computed",
            "branching.constituents",
        ):
            out[key] = self.counts[key]
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped tab-separated lines, times in microseconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tquery\tstart_us\tend_us\n")
            for k, (name, parent, query, start, end) in enumerate(self.spans):
                fh.write(
                    f"{k}\t{name}\t{parent}\t{query}\t"
                    f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n"
                )
