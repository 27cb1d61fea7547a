"""Span tracing at the symqfi module boundaries, installed from outside the package.

Each layer is a public function (or StateMatrix validation) named after its
module.  Installing the tracer replaces every binding of that function in
the loaded symqfi modules, so a span opens at whatever name the caller looks
up (``symqfi.schemes.qfi_phase``, ``symqfi.cli.optimize_bsd_split``, ...).
Spans are kept in flat arrays (name, parent, start, end) and written out
once, after the run.  Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

ROOT_SPAN = "bench.op"

# (span name, module that defines it, attribute path inside that module)
LAYERS = (
    ("cli.main", "symqfi.cli", "main"),
    ("schemes.scan", "symqfi.schemes", "scan"),
    ("schemes.optimize_rotation", "symqfi.schemes", "optimize_rotation"),
    ("schemes.scheme_qfi", "symqfi.schemes", "scheme_qfi"),
    ("schemes.build_probe", "symqfi.schemes", "build_probe"),
    ("collective_basis.wigner_d_matrix", "symqfi.collective_basis", "wigner_d_matrix"),
    ("collective_basis.generator", "symqfi.collective_basis", "generator"),
    ("collective_basis.validate", "symqfi.collective_basis", "StateMatrix.__post_init__"),
    ("dephasing.channel", "symqfi.dephasing", "apply_collective_dephasing"),
    ("dephasing.channel", "symqfi.dephasing", "apply_variant_dephasing"),
    ("qfi.qfi_phase", "symqfi.qfi", "qfi_phase"),
    ("qfi.eigh", "symqfi.qfi", "eigh"),
    ("steady_forms.optimize_bsd_split", "symqfi.steady_forms", "optimize_bsd_split"),
    ("steady_forms.bsd_steady_qfi", "symqfi.steady_forms", "bsd_steady_qfi"),
)

SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [name for name, _, _ in LAYERS]))


def _dim_cubed(matrix_like) -> int:
    """d^3 of a square matrix or of an object holding one as .matrix."""
    d = int(np.shape(getattr(matrix_like, "matrix", matrix_like))[0])
    return d * d * d


class Tracer:
    """Records nested spans around wrapped callables and keeps layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counters = {"qfi.eigh.sum_dim3": 0, "collective_basis.validate.sum_dim3": 0,
                         "schemes.scan.error_rows": 0}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """fn wrapped in a span; before(args) and after(result) update counters
        outside the span's own interval.  A layer entered again from inside
        itself (one channel delegating to the other) stays one span."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.thread_time  # the CPU clock worker.py times operations with

        def traced(*args, **kwargs):
            if stack[-1] >= 0 and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, name: str):
        counters = self.counters

        def add_dim3(key):
            def before(args):
                counters[key] += _dim_cubed(args[0])
            return before

        def count_error_rows(rows):
            counters["schemes.scan.error_rows"] += sum(r.error is not None for r in rows)

        if name in ("qfi.eigh", "collective_basis.validate"):
            return add_dim3(f"{name}.sum_dim3"), None
        if name == "schemes.scan":
            return None, count_error_rows
        return None, None

    def install(self) -> None:
        """Wrap every layer at each binding of it in the loaded symqfi modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "symqfi" or key.startswith("symqfi."))]
        for name, module_name, path in LAYERS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(original, name, *self._hooks(name))
            if outer:  # a method: the class attribute is the only binding
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names), "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name; self time is a span's duration
        minus the durations of its direct children."""
        a = self.arrays()
        count = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=count)
        self_time = dur - child_time
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_s = np.bincount(a["name"], weights=self_time, minlength=len(self.names))
        stats = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, name in enumerate(self.names):
            stats[name] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
        return stats

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        a = self.arrays()
        parents = a["parent"][a["name"] == self._ids[child_name]]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(a["name"][parents] == self._ids[parent_name]))
