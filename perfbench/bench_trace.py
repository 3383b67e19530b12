"""Span tracing for the traced benchmark run, installed from outside the package.

Every public function of every ``matcrypt`` module (a plain function whose
name has no leading underscore, defined in that module) is wrapped, and the
wrapper replaces the function's binding in *every* ``matcrypt`` module that
holds the same object: ``from .matrix import mat_mul`` binds the name at
import time, so patching ``matcrypt.matrix`` alone would miss the callers in
other modules.

Each call is one span: name, start, end, parent span and the id of the
benchmark operation that caused it.  Busy and self times are accumulated as
the spans close (self time is the span's duration minus the durations of its
child spans); the spans themselves are kept in memory and written out when the
run ends.  Element-level ring arithmetic is called millions of times per run,
so its spans are counted and timed but not kept.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

LAYERS = ("ring", "matrix", "words", "instance", "trapdoor", "protocol",
          "homcrypt", "analysis", "serialize", "cli")
UNKEPT_SPAN_LAYERS = frozenset({"ring"})
SPAN_CAP = 200_000


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


class Tracer:
    """Wraps the package's public functions and aggregates their spans."""

    def __init__(self):
        self.op_id = -1                    # set by the benchmark loop
        self.paused = False                # True while the benchmark checks
        self.calls = defaultdict(int)      # "layer.func" -> calls
        self.busy = defaultdict(float)     # "layer.func" -> outermost-call time
        self.errors = defaultdict(int)     # layer -> calls that raised
        self.self_s = defaultdict(float)   # layer -> span time minus children
        self.counters = defaultdict(float)  # result-derived counts
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.names: list[str] = []
        self._patched: list[tuple] = []
        self._stack: list = []
        self._ids = itertools.count(1)
        self._last_error: dict = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("matcrypt")
        mods = [pkg] + [importlib.import_module(f"matcrypt.{info.name}")
                        for info in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}", layer)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, qual: str, layer: str):
        tracer = self
        fid = len(self.names)
        self.names.append(qual)
        keep = layer not in UNKEPT_SPAN_LAYERS
        hook = _RESULT_HOOKS.get(qual)
        stack, ids, spans = self._stack, self._ids, self.spans
        calls, busy, self_s = self.calls, self.busy, self.self_s
        depth = [0]

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]       # span id, time in child spans
            stack.append(frame)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # one exception propagating through several functions of a
                # layer counts once for that layer
                if tracer._last_error.get(layer) is not exc:
                    tracer._last_error[layer] = exc
                    tracer.errors[layer] += 1
                if hook is not None:
                    hook(tracer, None, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[0] -= 1
                d = t1 - t0
                calls[qual] += 1
                if depth[0] == 0:
                    busy[qual] += d
                self_s[layer] += d - frame[1]
                if parent is not None:
                    parent[1] += d
                if keep:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[0], parent[0] if parent else None,
                                      tracer.op_id, fid, t0, t1))
                    else:
                        tracer.spans_dropped += 1
            if hook is not None:
                hook(tracer, result, None)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent id, operation id, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, op, fid, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, op, self.names[fid],
                                     round(t0, 9), round(t1, 9)]))
                fh.write("\n")

    def per_layer(self) -> dict:
        """Every per-layer metric, by name, as (value, unit)."""
        return {name: (float(fn(self)), unit) for name, unit, fn in PER_LAYER}


# -- counters read from results --------------------------------------------

def _enumerate_hook(tr, result, exc):
    if exc is None:
        tr.counters["enum.elements"] += len(result)
    elif type(exc).__name__ == "CapExceeded":
        tr.counters["enum.cap_hits"] += 1


def _scsp_hook(tr, result, exc):
    if exc is None:
        tr.counters["scsp.success"] += 1
        tr.counters["scsp.draws"] += result.draws


def _mparty_hook(tr, result, exc):
    if exc is None:
        for op in result[2]:
            tr.counters["protocol.compute"] += op["compute"]
            tr.counters["protocol.answer"] += op["answer"]


def _membership_hook(tr, result, exc):
    if exc is None and result.accepted:
        tr.counters["membership.accepted"] += 1


def _ltp_hook(tr, result, exc):
    if exc is None and type(result).__name__ != "NoSolution":
        tr.counters["ltp.solved"] += 1


def _encrypt_hook(tr, result, exc):
    if exc is None:
        tr.counters["cipher_letters"] += len(result)


def _main_hook(tr, result, exc):
    if exc is not None or result != 0:
        tr.counters["cli.exit_nonzero"] += 1


_RESULT_HOOKS = {
    "analysis.enumerate_group": _enumerate_hook,
    "analysis.scsp_linear_attack": _scsp_hook,
    "protocol.multiparty_run": _mparty_hook,
    "trapdoor.membership": _membership_hook,
    "trapdoor.ltp_solve": _ltp_hook,
    "homcrypt.hc_encrypt": _encrypt_hook,
    "cli.main": _main_hook,
}


# -- the per-layer metrics ---------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def _calls(q):
    return lambda tr: tr.calls[q]


def _busy(q):
    return lambda tr: tr.busy[q]


def _self(layer):
    return lambda tr: tr.self_s[layer]


def _errors(layer):
    return lambda tr: tr.errors[layer]


def _counter(key):
    return lambda tr: tr.counters[key]


PER_LAYER = [
    ("ring.ops", "count",
     lambda tr: tr.calls["ring.ring_add"] + tr.calls["ring.ring_mul"]),
    ("ring.inv.calls", "count", _calls("ring.ring_inv")),
    ("ring.self_s", "s", _self("ring")),
    ("matrix.mat_mul.calls", "count", _calls("matrix.mat_mul")),
    ("matrix.mat_mul.s", "s", _busy("matrix.mat_mul")),
    ("matrix.mat_inv.calls", "count", _calls("matrix.mat_inv")),
    ("matrix.mat_inv.s", "s", _busy("matrix.mat_inv")),
    ("matrix.mat_det.s", "s", _busy("matrix.mat_det")),
    ("matrix.vector_act.calls", "count", _calls("matrix.vector_act")),
    ("matrix.vector_act.s", "s", _busy("matrix.vector_act")),
    ("matrix.mat_kron.s", "s", _busy("matrix.mat_kron")),
    ("matrix.word_eval.s", "s", _busy("matrix.word_eval")),
    ("matrix.ring_change.s", "s", _busy("matrix.ring_change")),
    ("matrix.errors", "count", _errors("matrix")),
    ("matrix.self_s", "s", _self("matrix")),
    ("words.fw_mul.calls", "count", _calls("words.fw_mul")),
    ("words.fw_mul.s", "s", _busy("words.fw_mul")),
    ("words.self_s", "s", _self("words")),
    ("instance.tree_random.s", "s", _busy("instance.tree_random")),
    ("instance.tree_eval.s", "s", _busy("instance.tree_eval")),
    ("instance.subgroup_sample.s", "s", _busy("instance.subgroup_sample")),
    ("instance.leaf_enumerate.calls", "count", _calls("instance.leaf_enumerate")),
    ("instance.leaf_enumerate.s", "s", _busy("instance.leaf_enumerate")),
    ("instance.leaf_contains.calls", "count", _calls("instance.leaf_contains")),
    ("instance.leaf_contains.s", "s", _busy("instance.leaf_contains")),
    ("instance.self_s", "s", _self("instance")),
    ("trapdoor.membership.s", "s", _busy("trapdoor.membership")),
    ("trapdoor.ltp_solve.s", "s", _busy("trapdoor.ltp_solve")),
    ("trapdoor.tensor_split.calls", "count", _calls("trapdoor.tensor_split")),
    ("trapdoor.tensor_split.s", "s", _busy("trapdoor.tensor_split")),
    ("trapdoor.wreath_split.s", "s", _busy("trapdoor.wreath_split")),
    ("trapdoor.product_split_candidates.s", "s",
     _busy("trapdoor.product_split_candidates")),
    ("trapdoor.member_twists.calls", "count", _calls("trapdoor.member_twists")),
    ("trapdoor.member_twists.s", "s", _busy("trapdoor.member_twists")),
    ("trapdoor.accept_ratio", "ratio",
     lambda tr: _ratio(tr.counters["membership.accepted"],
                       tr.calls["trapdoor.membership"])),
    ("trapdoor.solved_ratio", "ratio",
     lambda tr: _ratio(tr.counters["ltp.solved"], tr.calls["trapdoor.ltp_solve"])),
    ("trapdoor.errors", "count", _errors("trapdoor")),
    ("trapdoor.self_s", "s", _self("trapdoor")),
    ("protocol.aag_run.s", "s", _busy("protocol.aag_run")),
    ("protocol.multiparty_run.s", "s", _busy("protocol.multiparty_run")),
    ("protocol.compute_ops", "count", _counter("protocol.compute")),
    ("protocol.answer_ops", "count", _counter("protocol.answer")),
    ("protocol.self_s", "s", _self("protocol")),
    ("homcrypt.hc_encrypt.s", "s", _busy("homcrypt.hc_encrypt")),
    ("homcrypt.hc_decrypt.s", "s", _busy("homcrypt.hc_decrypt")),
    ("homcrypt.sample_relator.calls", "count", _calls("homcrypt.sample_relator")),
    ("homcrypt.sample_relator.s", "s", _busy("homcrypt.sample_relator")),
    ("homcrypt.cipher_letters", "count", _counter("cipher_letters")),
    ("homcrypt.self_s", "s", _self("homcrypt")),
    ("analysis.enumerate_group.s", "s", _busy("analysis.enumerate_group")),
    ("analysis.enumerate_group.elements", "count", _counter("enum.elements")),
    ("analysis.enumerate_group.cap_hits", "count", _counter("enum.cap_hits")),
    ("analysis.scsp_linear_attack.s", "s", _busy("analysis.scsp_linear_attack")),
    ("analysis.scsp.draws", "count", _counter("scsp.draws")),
    ("analysis.scsp.success_ratio", "ratio",
     lambda tr: _ratio(tr.counters["scsp.success"],
                       tr.calls["analysis.scsp_linear_attack"])),
    ("analysis.linearity_attack.s", "s", _busy("analysis.linearity_attack")),
    ("analysis.coset_attack.s", "s", _busy("analysis.coset_attack")),
    ("analysis.solve_linear.s", "s", _busy("analysis.solve_linear")),
    ("analysis.self_s", "s", _self("analysis")),
    ("serialize.matrix_to_obj.calls", "count", _calls("serialize.matrix_to_obj")),
    ("serialize.dumps.s", "s", _busy("serialize.dumps")),
    ("serialize.self_s", "s", _self("serialize")),
    ("cli.main.s", "s", _busy("cli.main")),
    ("cli.exit_nonzero", "count", _counter("cli.exit_nonzero")),
    ("cli.self_s", "s", _self("cli")),
]
