"""Spans around the calls into each ``belldistil`` layer, for the traced run.

A :class:`Tracer` replaces selected package functions by timing wrappers
in every ``belldistil`` module namespace that binds them, so a call made
through ``from .x import f`` is traced too.  Each wrapped call records a
span (key, start, end, parent, units).  Spans are kept in memory and
summarised when the pass ends; :meth:`Tracer.uninstall` restores the
original functions.

Nothing here runs in a timing run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

#: ``binomial_pmf(m, p)`` uses exact integer arithmetic up to this m and
#: log-gamma above it.
BINOMIAL_COMB_MAX_M = 500


def _arg(args: tuple, kwargs: dict, i: int, name: str, default=None):
    """Argument ``name`` of a call, passed at position ``i`` or by keyword."""
    return args[i] if len(args) > i else kwargs.get(name, default)


def _exact_key(args, kwargs) -> str:
    n = _arg(args, kwargs, 0, "n")
    policy = _arg(args, kwargs, 2, "policy")
    return f"n{n}" if policy.backup_enabled else f"n{n}_nobackup"


def _uniform_bytes(args, kwargs) -> int:
    return _arg(args, kwargs, 0, "n") * _arg(args, kwargs, 3, "trials") * 8


#: (module, function, span name, key suffix from the arguments or None,
#:  work units from the arguments or None)
TARGETS = (
    ("bell_core", "distill_step", "bell_core.distill_step", None, None),
    ("bell_core", "iterate_map", "bell_core.iterate_map", None, None),
    ("finite_ensemble", "binomial_pmf", "finite_ensemble.binomial_pmf",
     lambda a, k: "comb" if _arg(a, k, 0, "m") <= BINOMIAL_COMB_MAX_M else "lgamma",
     None),
    ("finite_ensemble", "n_min", "finite_ensemble.n_min", None, None),
    ("iterative_scheme", "_depth_tables", "iterative_scheme.depth_tables", None, None),
    ("iterative_scheme", "expected_fidelity_exact", "iterative_scheme.exact",
     _exact_key, None),
    ("iterative_scheme", "expected_fidelity_mc", "iterative_scheme.mc",
     None, _uniform_bytes),
    ("_kernels", "simulate", "kernels.simulate",
     None, lambda a, k: _arg(a, k, 0, "u").shape[0]),
    ("oracle", "dejmps_step_full", "oracle.dejmps_step_full", None, None),
    ("oracle", "compare_with_closed_form", "oracle.compare_with_closed_form",
     None, lambda a, k: _arg(a, k, 0, "samples", 1000)),
    ("cli", "main", "cli", lambda a, k: _arg(a, k, 0, "argv")[0], None),
)


class Tracer:
    """Records one span per wrapped call.

    ``spans[i]`` is ``(key, start, end, parent, units)``; ``parent`` is the
    index of the enclosing span or -1.  With ``memory_of`` set, only that
    span name is wrapped, tracemalloc runs, and ``peak_bytes`` holds the
    largest traced-memory peak seen inside one such call.
    """

    def __init__(self, memory_of: str | None = None):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.peak_bytes = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._memory_of = memory_of

    def _wrap(self, name, fn, key_of, units_of):
        spans, stack = self.spans, self._stack
        memory = self._memory_of is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = f"{name}.{key_of(args, kwargs)}" if key_of else name
            units = units_of(args, kwargs) if units_of else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if memory:
                    self.peak_bytes = max(
                        self.peak_bytes, tracemalloc.get_traced_memory()[1] - base
                    )
                stack.pop()
                spans[idx] = (key, start, end, parent, units)

        return traced

    def install(self) -> None:
        for module, attr, name, key_of, units_of in TARGETS:
            if self._memory_of is not None and name != self._memory_of:
                continue
            fn = getattr(importlib.import_module(f"belldistil.{module}"), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(name, fn, key_of, units_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "belldistil" and not mod_name.startswith("belldistil."):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, wrapped)
                        self._restore.append((mod, binding, fn))
        if self._memory_of is not None:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self._memory_of is not None:
            tracemalloc.stop()
        for mod, binding, fn in reversed(self._restore):
            setattr(mod, binding, fn)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-key call counts, total time and units, plus the time of
        top-level spans and the split of Monte Carlo self time around the
        kernel calls."""
        by_key: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        children: dict[int, list[int]] = defaultdict(list)
        top_level_s = 0.0
        for i, (key, start, end, parent, units) in enumerate(self.spans):
            entry = by_key[key]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += units
            if parent < 0:
                top_level_s += end - start
            else:
                children[parent].append(i)
        pre_kernel_s = post_kernel_s = 0.0
        for i, (key, start, end, _, _) in enumerate(self.spans):
            if key != "iterative_scheme.mc":
                continue
            kids = [self.spans[j] for j in children[i]]
            kernel_ends = [k[2] for k in kids if k[0] == "kernels.simulate"]
            split = max(kernel_ends, default=end)
            child_before = sum(min(k[2], split) - k[1] for k in kids if k[1] < split)
            child_after = sum(k[2] - max(k[1], split) for k in kids if k[2] > split)
            pre_kernel_s += (split - start) - child_before
            post_kernel_s += (end - split) - child_after
        return {
            "spans": {k: v for k, v in sorted(by_key.items())},
            "top_level_s": top_level_s,
            "mc_pre_kernel_s": pre_kernel_s,
            "mc_post_kernel_s": post_kernel_s,
            "missing": self.missing,
        }
