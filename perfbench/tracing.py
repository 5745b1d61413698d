"""In-memory spans around catscope's public functions, installed from outside.

The package wires its modules together with ``from .x import y``, so one
function is reachable under several module attributes (for example
``catscope.fock.coherent_state``, ``catscope.kaleidoscope.coherent_state``
and ``catscope.coherent_state``).  :meth:`Tracer.install` replaces every such
attribute with a single wrapper and :meth:`Tracer.restore` puts the originals
back; the package's source is never modified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# Layers are catscope's modules; these are the functions traced in each.
TRACED = {
    "fock": ("truncation_dim", "coherent_state", "inner_product",
             "coherent_overlap_closed"),
    "modexp": ("modexp_all", "modexp_series", "modexp_roots"),
    "kaleidoscope": ("kaleidoscope_basis", "normalization_constants", "gram",
                     "cat_states_raw", "dft_matrix", "roots_lemma_sum"),
    "gates": ("clock_matrix", "shift_matrix", "unitarity_residual",
              "verify_clock_shift_decomposition", "weyl_commutation"),
    "cli": ("main", "parse_complex", "cmd_basis", "cmd_overlap", "cmd_modexp",
            "cmd_gates", "cmd_lemma", "dumps_record"),
}
TRACED_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items()
                     for name in names)

# Prefix of the stderr line on which a traced child process reports its spans.
SPANS_MARKER = "perfbench-spans: "


def _count_gram_flop(span, args, result, counts):
    # One complex multiply-add (8 real flop) per term of count^2 inner
    # products of length dim: computed from the shape, not measured.
    shape = np.shape(args[0])
    count, dim = (1, shape[0]) if len(shape) == 1 else shape
    counts["kaleidoscope.gram.computed_flop"] += 8 * count * count * dim


def _count_levels(span, args, result, counts):
    counts["fock.levels"] += result


def _label_format(span, args, result, counts):
    argv = args[0] if args and args[0] is not None else sys.argv[1:]
    if "csv" in argv or "--format=csv" in argv:
        span[5] = "csv"


_HOOKS = {
    "kaleidoscope.gram": _count_gram_flop,
    "fock.truncation_dim": _count_levels,
    "cli.main": _label_format,
}


class Tracer:
    """Spans and counts of traced catscope calls in this process.

    A span is ``[name, start_ns, end_ns, parent_index, point, label]``; the
    parent index is -1 for a top-level call.  ``point`` is whatever the caller
    last assigned to :attr:`point`, so every span of one benchmark point
    shares it.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.point = None
        self._stack: list = []
        self._patched: list = []

    def install(self) -> None:
        """Wrap every module attribute that refers to a traced function."""
        modules = [module for name, module in list(sys.modules.items())
                   if name == "catscope" or name.startswith("catscope.")]
        for short, names in TRACED.items():
            home = sys.modules[f"catscope.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.point, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(span, args, result, counts)
            return result

        return wrapper

    def absorb(self, spans: list, counts: dict) -> None:
        """Add the spans and counts a traced child process reported."""
        offset = len(self.spans)
        for name, start, end, parent, _, label in spans:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1,
                               self.point, label])
        for key, value in counts.items():
            self.counts[key] += value

    def drain(self):
        """Fold the spans recorded so far, then forget them and the counts.

        Returns ``(stats, top_ns, counts)``: ``stats`` maps ``(point, name)``
        to ``[calls, self_ns]``; a labelled span also adds to
        ``name + "." + label``.  ``top_ns`` is the time inside top-level spans.
        """
        stats, top_ns = fold(self.spans)
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return stats, top_ns, counts


def fold(spans: list):
    """Calls and self time per (point, name), and the time in top-level spans.

    Self time is a span's duration minus the part of it that child spans
    cover.  Calls on one thread nest properly, so the children of a span are
    disjoint intervals inside it and their coverage is their summed duration.
    """
    covered = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = defaultdict(lambda: [0, 0])
    top_ns = 0
    for index, (name, start, end, parent, point, label) in enumerate(spans):
        self_ns = end - start - covered[index]
        names = (name, f"{name}.{label}") if label else (name,)
        for key in names:
            entry = stats[(point, key)]
            entry[0] += 1
            entry[1] += self_ns
        if parent < 0:
            top_ns += end - start
    return stats, top_ns
