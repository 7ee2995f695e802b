"""Spans around the calls into each qlam layer, recorded from outside the
package.

Modules import these functions by name (``gradients`` imports
``apply_plan_kernel``; ``circuits`` imports the statevector kernels), so a
function is replaced in every loaded ``qlam`` module that holds it, not
only where it is defined.  Names a later version no longer has are
skipped, and their metrics read 0.

Every call adds its duration to its caller's child time, so a layer's
self time is its duration minus the time its traced callees cover.
Calls are aggregated per (name, caller name).  Layers marked "span" also
keep one span per call (id, name, start, end, parent id, run id) in
memory until `write_spans`; layers called thousands of times per sample
(the statevector kernels, single Pauli strings, shot draws) are only
aggregated, which keeps a traced epoch's memory small.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import time

# (module, function, keep spans)
TARGETS = (
    ("trainer", "train", True),
    ("trainer", "batch_gradients", True),
    ("trainer", "evaluate_samples", True),
    ("gradients", "loss_and_grad", True),
    ("cell", "final_logits", True),
    ("cell", "all_head_gammas", True),
    ("circuits", "step", True),
    ("circuits", "apply_plan_kernel", True),
    ("observables", "pool_expectations", True),
    ("observables", "apply_pauli_string", False),
    ("observables", "sample_term_mean", False),
    ("statevector", "apply_1q_kernel", False),
    ("statevector", "apply_ry_kernel", False),
    ("statevector", "apply_rz_kernel", False),
    ("statevector", "apply_cnot_kernel", False),
    ("statevector", "apply_pauli_kernel", False),
    ("nn", "adam_step", True),
    ("nn", "clip_global_norm", True),
    ("checkpoint", "save_checkpoint", True),
    ("checkpoint", "load_checkpoint", True),
)

KERNEL_PREFIX = "statevector."
# complex128 amplitudes, each read once and written once by a kernel
KERNEL_BYTES_PER_AMPLITUDE = 16 * 2


def _qlam_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qlam" or name.startswith("qlam."))]


class Tracer:
    """Patches the TARGETS while entered; aggregates in ``stats``."""

    def __init__(self):
        self.run_id = ""
        self.spans: list[tuple] = []
        # (name, caller name or None) -> [calls, seconds, self seconds, kernel bytes]
        self.stats: dict[tuple, list] = {}
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, keep_span):
        stack, stats, spans, ids = self._stack, self.stats, self.spans, self._ids
        clock = time.perf_counter
        is_kernel = name.startswith(KERNEL_PREFIX)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                caller = None
                if parent is not None:
                    parent[2] += duration
                    caller = parent[1]
                entry = stats.get((name, caller))
                if entry is None:
                    entry = stats[(name, caller)] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if is_kernel and args:
                    entry[3] += getattr(args[0], "size", 0) * KERNEL_BYTES_PER_AMPLITUDE
                if keep_span:
                    spans.append((frame[0], name, start, end,
                                  parent[0] if parent else None, self.run_id))

        return traced

    def __enter__(self):
        modules = _qlam_modules()
        by_name = {m.__name__: m for m in modules}
        for module, function, keep_span in TARGETS:
            home = by_name.get(f"qlam.{module}")
            original = getattr(home, function, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module}.{function}", original, keep_span)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()
        return False

    # -- aggregation ---------------------------------------------------

    def total(self, name, field=0, exclude_callers=()):
        """Sum one stats field over every caller of ``name`` (or of a
        ``prefix.`` when ``name`` ends with a dot)."""
        match = name.endswith(".")
        return sum(
            entry[field] for (n, caller), entry in self.stats.items()
            if (n.startswith(name) if match else n == name)
            and not any(caller is not None and caller.startswith(x) for x in exclude_callers)
        )

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "run"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
