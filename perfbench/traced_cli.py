"""Run one CLI operation with spans at every layer boundary of the package.

Usage: traced_cli.py TRACE_OUT.json CLI_ARGS...

The process behaves like `python -m gpfq.cli CLI_ARGS...` (same stdout, exit
code and traceback), but before calling `gpfq.cli.run` it wraps, in this
process only, the names each module takes from the layer below:

* functions a layer module imports from another layer (`factor._divmod`,
  `progfree.factorization_exponents`, `density.render_decimal`, ...);
* module objects a layer imports whole (`cli.density`, `tables.density`, ...),
  replaced by a namespace of wrapped functions;
* the arithmetic methods and constructors of each layer's classes (`Poly.__mul__`,
  `Interval.__mul__`, ...), since any layer may call them;
* `add_c`/`mul_c`/`inv_c` of every `FieldSpec`, which are counted, not timed.

A span is opened only when control crosses from one layer into another, so a
layer's self time is the time its own code ran, including its module import.
Comparisons and hashes are not wrapped; their time stays with the caller.
The summary (self seconds and calls per layer, ff calls, the largest endpoint
bit length handed to `render_decimal`, and exceptions by boundary) is written
to TRACE_OUT.json when the operation ends, also when it raises.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import inspect
import itertools
import json
import sys
import types
from time import perf_counter

LAYERS = ("cli", "tables", "density", "progfree", "factor", "polyring", "numeric")
_METHODS = {
    "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__divmod__",
    "__floordiv__", "__mod__", "__pow__", "__contains__",
}


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.raised = {}
        self.endpoint_bits_max = 0
        self.ff_counters = []
        self.stack = [["<start>", 0.0, 0.0]]

    def enter(self, layer):
        frame = [layer, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame):
        dt = perf_counter() - frame[1]
        self.stack.pop()
        self.self_s[frame[0]] += dt - frame[2]
        self.stack[-1][2] += dt

    def wrap(self, layer, fn):
        """`fn` from `layer`, timed as a span whenever the caller is another layer."""
        stack = self.stack
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                calls[layer] += 1
                return self._iterate(layer, fn(*args, **kwargs))
            return traced_gen

        def traced(*args, **kwargs):
            caller = stack[-1][0]
            if caller == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            frame = self.enter(layer)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = f"{caller}>{layer}:{type(exc).__name__}"
                self.raised[key] = self.raised.get(key, 0) + 1
                raise
            finally:
                self.leave(frame)
        return traced

    def _iterate(self, layer, it):
        while True:
            frame = self.enter(layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.leave(frame)
            yield item

    def count_ff(self, spec):
        for name, arity in (("add_c", 2), ("mul_c", 2), ("inv_c", 1)):
            counter = itertools.count()
            self.ff_counters.append(counter)
            setattr(spec, name, _counted(getattr(spec, name), arity, counter))

    def summary(self):
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "ff_calls": sum(next(c) for c in self.ff_counters),
            "endpoint_bits_max": self.endpoint_bits_max,
            "raised": self.raised,
        }


def _counted(fn, arity, counter):
    tick = counter.__next__
    if arity == 1:
        def one(a):
            tick()
            return fn(a)
        return one

    def two(a, b):
        tick()
        return fn(a, b)
    return two


def _layer_of(obj):
    module = getattr(obj, "__module__", None) or ""
    name = module.rpartition(".")[2]
    return name if module.startswith("gpfq.") and name in LAYERS else None


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Times the execution of each layer module's import as a span of that layer."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        layer = name.rpartition(".")[2]
        if not name.startswith("gpfq.") or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def timed_exec(module):
            if tracer.stack[-1][0] == layer:
                return exec_module(module)
            frame = tracer.enter(layer)
            try:
                exec_module(module)
            finally:
                tracer.leave(frame)

        spec.loader.exec_module = timed_exec
        return spec


def _instrument(tracer, modules):
    wrapped = {}

    def wrapped_fn(layer, fn):
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(layer, fn)
        return wrapped[fn]

    # classes: arithmetic methods and constructors, on the class itself
    for layer, module in modules.items():
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") and attr not in _METHODS:
                    continue
                if isinstance(value, classmethod):
                    setattr(cls, attr, classmethod(wrapped_fn(layer, value.__func__)))
                elif inspect.isfunction(value):
                    setattr(cls, attr, wrapped_fn(layer, value))

    # names each layer imported from another layer
    for layer, module in modules.items():
        for name, value in list(vars(module).items()):
            if isinstance(value, types.ModuleType):
                target = value.__name__.rpartition(".")[2]
                if value.__name__.startswith("gpfq.") and target in LAYERS and target != layer:
                    proxy = types.SimpleNamespace(**{
                        attr: wrapped_fn(target, v) if inspect.isfunction(v) and _layer_of(v) == target else v
                        for attr, v in vars(value).items() if not attr.startswith("__")
                    })
                    setattr(module, name, proxy)
            elif inspect.isfunction(value):
                target = _layer_of(value)
                if target is not None and target != layer:
                    setattr(module, name, wrapped_fn(target, value))


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    sys.meta_path.insert(0, _ImportSpans(tracer))
    root = tracer.enter("cli")
    tracer.calls["cli"] += 1
    try:
        import gpfq.cli
        from gpfq import ff, numeric

        modules = {name: sys.modules[f"gpfq.{name}"] for name in LAYERS}
        _instrument(tracer, modules)

        init_ops = ff.FieldSpec._init_ops

        def counted_init_ops(spec):
            init_ops(spec)
            tracer.count_ff(spec)

        ff.FieldSpec._init_ops = counted_init_ops

        render = numeric.render_decimal

        def render_decimal(v, digits):
            ends = (v.lo, v.hi) if isinstance(v, numeric.Interval) else (numeric.Fraction(v),)
            bits = max(max(e.numerator.bit_length(), e.denominator.bit_length()) for e in ends)
            tracer.endpoint_bits_max = max(tracer.endpoint_bits_max, bits)
            return render(v, digits)

        traced_render = tracer.wrap("numeric", render_decimal)
        for module in modules.values():
            if getattr(module, "render_decimal", None) is not None:
                module.render_decimal = traced_render
        return gpfq.cli.run(cli_args)
    finally:
        tracer.leave(root)
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
