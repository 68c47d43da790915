"""Per-layer tracing by rebinding qrepsim's public functions from outside.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
records a span (layer, parent span, start, end) and rebinds it under every
name that any ``qrepsim`` module bound it to, so ``from .noise import
noisy_measure_z`` in ``chain`` and ``purify`` is traced too. Methods are
replaced on their class. ``Tracer.uninstall`` puts every original back.

Spans stay in memory as flat arrays and are reduced when the run ends.
A span's self time is its duration minus the durations of its direct
children; one thread runs the program, so children never overlap and the
subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# (module, qualified name) of every traced layer function.
LAYERS = (
    ("config", "load_config"),
    ("link", "expected_esta"),
    ("link", "qc_zone_state"),
    ("purify", "purify_n_rounds"),
    ("purify", "purify_round"),
    ("chain", "chain_fidelity_table"),
    ("chain", "bell_measurement"),
    ("chain", "optimize_plan"),
    ("schedule", "t_eg"),
    ("schedule", "rate_fidelity_curve"),
    ("cli", "emit"),
    ("states", "expand_operator"),
    ("states", "DensityMatrix.validate"),
    ("states", "KrausChannel.validate"),
    ("noise", "noisy_two_qubit_gate"),
    ("noise", "noisy_measure_z"),
)
NAMES = tuple(f"{module}.{qualname}" for module, qualname in LAYERS)
LADDER = "purify.purify_n_rounds"


def _qrepsim_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "qrepsim" or name.startswith("qrepsim.")
    ]


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []  # (holder, attribute, original)
        self.ladders = 0
        self.ladder_rounds = 0
        self.ladder_repeats = 0
        self._ladder_keys = set()

    # -- recording ---------------------------------------------------------
    def begin_op(self) -> None:
        """Start a new operation: ladder repeats are counted within one."""
        self._ladder_keys.clear()

    def _wrap(self, layer_id: int, fn, probe=None):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.bench_layer = NAMES[layer_id]
        return wrapper

    def _ladder_probe(self, signature):
        def probe(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (a["initial"].matrix.tobytes(), a["n"], a["params"], a["balanced"])
            self.ladders += 1
            self.ladder_rounds += a["n"]
            if key in self._ladder_keys:
                self.ladder_repeats += 1
            self._ladder_keys.add(key)

        return probe

    # -- installing --------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, _ in LAYERS:
            importlib.import_module(f"qrepsim.{module_name}")
        modules = _qrepsim_modules()
        for layer_id, (module_name, qualname) in enumerate(LAYERS):
            module = sys.modules[f"qrepsim.{module_name}"]
            owner, _, attr = qualname.rpartition(".")
            if owner:
                holder = getattr(module, owner)
                original = holder.__dict__[attr]
                self._rebind(holder, attr, original, self._wrap(layer_id, original))
                continue
            original = getattr(module, attr)
            probe = None
            if NAMES[layer_id] == LADDER:
                probe = self._ladder_probe(inspect.signature(original))
            wrapper = self._wrap(layer_id, original, probe)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapper)

    def _rebind(self, holder, attr, original, wrapper):
        self._saved.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reducing ----------------------------------------------------------
    def totals(self) -> dict:
        """{layer: (calls, total_s, self_s)} over every recorded span."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        total = [0.0] * len(NAMES)
        own = [0.0] * len(NAMES)
        for i in range(n):
            k = self.layer[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += dur
            own[k] += dur - child[i]
        return {name: (calls[k], total[k], own[k]) for k, name in enumerate(NAMES)}

    def time_outside(self, layer: str, excluded: tuple) -> float:
        """Time in ``layer`` spans not spent inside descendants named ``excluded``.

        Used for the plan search: ``chain.optimize_plan`` minus any table it
        builds itself (point queries build the table inside it).
        """
        target = NAMES.index(layer)
        skip = {NAMES.index(name) for name in excluded}
        # inside[i]: the nearest target-or-excluded span enclosing span i is a target
        inside = bytearray(len(self.start))
        result = 0.0
        for i in range(len(self.start)):
            p, k = self.parent[i], self.layer[i]
            dur = self.end[i] - self.start[i]
            enclosed = p >= 0 and inside[p]
            if k == target:
                inside[i] = 1
                result += dur
            elif k in skip:
                if enclosed:
                    result -= dur
            else:
                inside[i] = enclosed
        return result
