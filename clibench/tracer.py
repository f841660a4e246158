"""Run one fermatlab CLI call with its layers traced.

    PYTHONPATH=src python3 clibench/tracer.py TRACE.json ARGS...

Times the import of fermatlab.cli, wraps the public functions of each
fermatlab module, runs fermatlab.cli.main(ARGS) and, at exit, writes to
TRACE.json what the wrappers recorded in memory:

  spans       [id, name, start, end, parent] for every wrapped call
  aggregates  [id, name, parent, calls, seconds] for the calls made once
              per squaring or per candidate (HOT), folded per parent so
              that tracing them costs no memory per call
  counts      quantities read from the arguments and results of calls
  import_s    time to import fermatlab.cli

A span's name is "<layer>.<function>", the layer being the module name.
Self time is a record's duration minus the durations of the records
whose parent it is.  The exit code is that of main().
"""

import sys
import time

_T0 = time.perf_counter()
import fermatlab.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from collections import Counter  # noqa: E402

LAYERS = ("arith", "checkpoint", "cli", "factors", "oracle", "orders",
          "primality", "records")

# Run inside every FermatResidue construction, i.e. once per squaring in
# order_alpha and once per candidate in divides_fermat: a wrapper there
# would cost more than the code it times.  Their time counts in the caller.
UNWRAPPED = frozenset({"arith.check_index", "arith.max_index"})

HOT = frozenset({"arith.mod_mul", "factors.divides_fermat",
                 "oracle.is_probable_prime"})


class Tracer:
    def __init__(self):
        self.spans = []
        self.aggregates = {}
        self.counts = Counter()
        self.stack = [0]
        self.ids = itertools.count(1)

    def wrap(self, name, fn, hot=False, before=None, after=None):
        spans, aggregates, stack, ids = (self.spans, self.aggregates,
                                         self.stack, self.ids)
        clock = time.perf_counter

        if hot:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                key = (name, stack[-1])
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [next(ids), name, key[1], 0, 0.0]
                stack.append(agg[0])
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    agg[4] += clock() - t0
                    agg[3] += 1
                    stack.pop()
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, name, t0, t1, parent))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def dump(self, path, exit_code):
        doc = {"import_s": IMPORT_S, "exit_code": exit_code,
               "spans": self.spans,
               "aggregates": list(self.aggregates.values()),
               "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer):
    """Wrap the public functions of every layer, in every namespace."""
    modules = {layer: importlib.import_module(f"fermatlab.{layer}")
               for layer in LAYERS}
    counts = tracer.counts
    primality = modules["primality"]

    def square_chain(fn):
        # A chain cut short by its observer (a checkpoint pause) did as
        # many squarings as the observer saw, not the count it was given.
        @functools.wraps(fn)
        def run(a, count, observer=None):
            counts["primality.chains"] += 1
            if observer is None:
                counts["arith.squarings"] += count
                return fn(a, count)
            seen = [0]

            def counted(i, value):
                seen[0] += 1
                observer(i, value)
            if not hasattr(type(observer), "__wrapped_by_tracer__"):
                # a closure of the calling layer, e.g. primality's tap
                layer = observer.__module__.rsplit(".", 1)[-1]
                counted = tracer.wrap(
                    f"{layer}.{observer.__qualname__}", counted, hot=True)
            try:
                return fn(a, count, counted)
            finally:
                counts["arith.squarings"] += seen[0]
        return run

    def cache_probe(args, kwargs):
        n = _arg(args, kwargs, 0, "n")
        hit = n in primality._PRIME_CACHE
        counts["primality.prime_cache_hits" if hit
               else "primality.prime_cache_misses"] += 1

    def candidates(args, kwargs, result):
        n, k_max = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "k_max")
        width, shift = 1 << n, n + 2
        cap = (1 << (width - shift)) - 1 if width > shift else 0
        counts["factors.candidates"] += min(k_max, cap)

    def count(key, measure):
        def after(args, kwargs, result):
            counts[key] += measure(args, kwargs, result)
        return after

    hooks = {
        "primality.fermat_is_prime": {"before": cache_probe},
        "orders.order_alpha": {"after": count(
            "orders.squarings", lambda a, k, r: r.squarings_used)},
        "factors.lucas_search": {"after": candidates},
        "checkpoint.save_checkpoint": {"after": count(
            "checkpoint.bytes", lambda a, k, r: os.path.getsize(r))},
        "records.dump": {"after": count(
            "records.bytes", lambda a, k, r: len(r.encode("utf-8")))},
    }

    replaced = {}
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if not inspect.isfunction(fn) or attr.startswith("_") \
                    or fn.__module__ != module.__name__ or name in UNWRAPPED:
                continue
            if name == "arith.mod_square_chain":
                fn_traced = square_chain(fn)
            else:
                fn_traced = fn
            replaced[fn] = tracer.wrap(name, fn_traced, hot=name in HOT,
                                       **hooks.get(name, {}))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])

    writer = modules["checkpoint"].CheckpointWriter
    writer.__call__ = tracer.wrap("checkpoint.CheckpointWriter.__call__",
                                  writer.__call__, hot=True)
    writer.__wrapped_by_tracer__ = True


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = fermatlab.cli.main(argv)
    finally:
        tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
