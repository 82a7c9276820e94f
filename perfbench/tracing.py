"""Spans around calls into the nwmix layers, recorded from outside the package.

A ``Tracer`` replaces every public function of the six layer modules with a
wrapper, wherever the function is bound in an ``nwmix`` module namespace
(its own module, other modules' ``from .x import f`` names, the package
namespace).  A call counts as a call *into* a layer when the caller's module
is not the layer's own module; such calls get a span, calls inside a layer
pass straight through.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graphs", "walks", "conductance", "subtrees", "constants", "experiments")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _mixing_work(fn, args, kwargs, res):
    g = _bound(fn, args, kwargs)["g"]
    steps = sum(t for t in res.per_start if t is not None)
    # one row-step of x @ P is 2 * nnz(P) flops; P = (I + D^-1 A)/2
    return {"start_steps": steps, "kernel_flops": 2 * (g.n + 2 * g.m) * steps}


def _local_work(fn, args, kwargs, res):
    a = _bound(fn, args, kwargs)
    return {"anneal_iters": len(res.profile.entries) * a["restarts"] * a["iterations"]}


# Work counted at the span boundary, keyed by span name.
WORK = {
    "graphs.sample_small_world": lambda fn, a, kw, res: {"edges": res.m},
    "walks.mixing_time": _mixing_work,
    "walks.escape_time": lambda fn, a, kw, res: {"escape_steps": res.steps},
    "conductance.fr_bound[local-search]": _local_work,
    "subtrees.brute_force_mu": lambda fn, a, kw, res: {"mc_samples": res.samples},
}


def _span_name(layer, fn, args, kwargs):
    name = f"{layer}.{fn.__name__}"
    if name == "conductance.fr_bound":
        name += f"[{_bound(fn, args, kwargs)['mode']}]"
    return name


class Patches:
    """``setattr`` that remembers what it replaced; ``undo`` puts it back."""

    def __init__(self):
        self._undo: list = []

    def set(self, obj, name, val) -> None:
        self._undo.append((obj, name, vars(obj)[name]))
        setattr(obj, name, val)

    def undo(self) -> None:
        while self._undo:
            obj, name, val = self._undo.pop()
            setattr(obj, name, val)


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.spans`` afterwards.

    A span is ``(name, start, end, parent_index, unit)``; ``unit`` is the
    value of ``t.unit`` when the span opened.
    """

    def __init__(self):
        self.spans: list = []
        self.work: dict = defaultdict(int)
        self.unit = None
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, layer, fn, home):
        tracer = self

        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            name = _span_name(layer, fn, args, kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.unit)
            counter = WORK.get(name)
            if counter is not None:
                for key, val in counter(fn, args, kwargs, res).items():
                    tracer.work[key] += val
            return res

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        import nwmix

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"nwmix.{layer}"]
            home = vars(mod)
            for name, val in list(home.items()):
                if (inspect.isfunction(val) and not name.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[id(val)] = (val, self._wrap(layer, val, home))
        namespaces = [nwmix] + [m for k, m in sys.modules.items()
                                if k.startswith("nwmix.")]
        for ns in namespaces:
            for name, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None:
                    self._patches.set(ns, name, hit[1])
        cls = nwmix.graphs.UndirectedGraph
        self._patches.set(cls, "is_connected",
                          self._wrap("graphs", cls.is_connected, vars(nwmix.graphs)))
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    # -- summaries -----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds); per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        by_name: dict = defaultdict(lambda: [0, 0.0])
        self_s: dict = {layer: 0.0 for layer in LAYERS}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            by_name[name][0] += 1
            by_name[name][1] += t1 - t0
            self_s[name.split(".", 1)[0]] += (t1 - t0) - c
        return dict(by_name), self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "unit": unit}) + "\n")


@contextmanager
def capture(namespace, name):
    """Keep the results of one function as seen from one module namespace.

    ``with capture(nwmix.experiments, "mixing_time") as got:`` leaves every
    result that ``experiments`` obtained from ``mixing_time`` in ``got``.
    """
    orig = getattr(namespace, name)
    got = []

    def keep(*args, **kwargs):
        res = orig(*args, **kwargs)
        got.append(res)
        return res

    patches = Patches()
    patches.set(namespace, name, keep)
    try:
        yield got
    finally:
        patches.undo()
