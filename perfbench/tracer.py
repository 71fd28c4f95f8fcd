"""Outside-in span tracer for one in-process dilationkit CLI invocation.

The program is not edited: `install` replaces each layer's public functions
and public class methods with timing wrappers, in every dilationkit module
namespace that bound the function by name, and `restore` puts the originals
back.  Spans nest on one stack, so a span's self time is its duration minus
the time of the spans it called.  Counters record work at the same
boundaries (matrices handed to numpy, bytes allocated by numpy.eye, values
drawn from the RNG, ...).  A name the program no longer has is listed as
absent instead of failing, so refactors need no edit here.

Run as a script it executes one warm-up CLI invocation, then one untraced
and one traced, in the order given, and prints their reports, walls, spans
and counters as one JSON object:

    PYTHONPATH=src python3 perfbench/tracer.py --order untraced-first -- chl5 --p 4
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import sys
import time

LAYERS = ("cli", "rademacher", "framings", "frames", "ovm", "dilation",
          "_subsets", "linalg", "rng")
# Private cli helpers that are phases of a handler: input load, report
# emission and the triple write.
CLI_PHASES = ("_load_doc", "_emit", "_write_json_atomic", "_encode_array")
# The numpy boundary where the dense kernels run, as (module, attribute).
NUMPY_KERNELS = (("numpy.linalg", "svd"), ("numpy.linalg", "eigvalsh"),
                 ("numpy.linalg", "eigh"), ("numpy.linalg", "matrix_rank"),
                 ("numpy.linalg", "qr"), ("numpy.linalg", "solve"),
                 ("numpy.linalg", "norm"), ("numpy", "eye"))
# Per-value primitives called about a million times on chl5; wrapping them
# would cost more than the work they do, so their time stays with callers.
SKIP = {"rng.Xorshift.u64", "rng.Xorshift.uniform"}


def _matrices(shape) -> int:
    count = 1
    for size in shape[:-2]:
        count *= size
    return count


def _nbytes(obj) -> int:
    arrays = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    return sum(a.nbytes for a in arrays if hasattr(a, "nbytes"))


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_stack(key):
    return lambda counts, args, result: _add(counts, key, _matrices(args[0].shape))


def _count_max_dim(counts, args, result):
    key = "linalg.spectral_norm.max_dim"
    counts[key] = max(counts.get(key, 0), max(getattr(args[0], "shape", (0,)) or (0,)))


COUNTERS = {
    "numpy.linalg.svd": _count_stack("numpy.linalg.svd.matrices"),
    "numpy.linalg.eigvalsh": _count_stack("numpy.linalg.eigvalsh.matrices"),
    "numpy.eye": lambda c, a, r: _add(c, "numpy.eye.bytes", r.nbytes),
    "linalg.spectral_norm": _count_max_dim,
    "subsets.batched_spectral_norms":
        lambda c, a, r: _add(c, "subsets.batched_spectral_norms.matrices", len(r)),
    "rng.Xorshift.normals": lambda c, a, r: _add(c, "rng.values", r.size),
    "rng.Xorshift.signs": lambda c, a, r: _add(c, "rng.values", r.size),
    "rng.Xorshift.below": lambda c, a, r: _add(c, "rng.values", 1),
    "rng.Xorshift.mask": lambda c, a, r: _add(c, "rng.values", 1),
    "rademacher.build_block":
        lambda c, a, r: _add(c, "rademacher.projection_bytes", r.projection.nbytes),
    "dilation.build_block_dilation": lambda c, a, r: _add(c, "dilation.triple_bytes", _nbytes(r)),
    "dilation.naimark_dilate": lambda c, a, r: _add(c, "dilation.triple_bytes", _nbytes(r)),
}


class Recorder:
    """Span statistics and counters of one traced invocation.

    `spans[name]` is [calls, total_s, self_s]; `counts` maps counter names to
    integers; `broken` names spans whose counter no longer fits the result.
    """

    def __init__(self):
        self.spans = {}
        self.counts = {}
        self.broken = set()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]

    def wrap(self, name, fn):
        """Timing wrapper for `fn`; a generator function gets one span per step."""
        count = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def stepper(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(steps)
                        except StopIteration:
                            return
                    yield item
            return stepper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    count(self.counts, args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    self.broken.add(name)
            return result
        return wrapper


def targets():
    """(span name, owner, attribute) for everything to wrap, plus the names
    that were asked for explicitly but are missing."""
    found, absent = [], []
    for module_name in LAYERS:
        module = importlib.import_module(f"dilationkit.{module_name}")
        layer = label(module_name)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{attr}", module, attr))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    name = f"{layer}.{attr}.{meth}"
                    if not meth.startswith("_") and inspect.isfunction(fn) and name not in SKIP:
                        found.append((name, obj, meth))
    cli = importlib.import_module("dilationkit.cli")
    explicit = [("cli", cli, attr) for attr in CLI_PHASES]
    explicit += [(mod, importlib.import_module(mod), attr) for mod, attr in NUMPY_KERNELS]
    for prefix, owner, attr in explicit:
        name = f"{prefix}.{attr}"
        if callable(getattr(owner, attr, None)):
            found.append((name, owner, attr))
        else:
            absent.append(name)
    known = {name for name, _, _ in found}
    absent += sorted(set(COUNTERS) - known)
    return found, absent


def install(recorder: Recorder):
    """Wrap every target; returns (undo list for `restore`, absent names)."""
    found, absent = targets()
    namespaces = [m for n, m in sys.modules.items()
                  if n == "dilationkit" or n.startswith("dilationkit.")]
    undo = []
    for name, owner, attr in found:
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original)
        homes = [owner] if inspect.isclass(owner) else [owner, *namespaces]
        for home in dict.fromkeys(homes):
            for bound, value in list(vars(home).items()):
                if value is original:
                    undo.append((home, bound, original))
                    setattr(home, bound, wrapper)
    return undo, absent


def restore(undo) -> None:
    for home, attr, original in reversed(undo):
        setattr(home, attr, original)


def label(module_name: str) -> str:
    """Layer label of a module: metric names start with a letter, so the
    private module _subsets is labelled subsets."""
    return module_name.lstrip("_")


def layer_of(span_name: str) -> str:
    return "numpy" if span_name.startswith("numpy.") else span_name.split(".", 1)[0]


def summarize(recorder: Recorder) -> dict:
    """Derived per-layer figures of one traced invocation.

    The handler is the cli.cmd_* span.  cli.load_s is main's time outside the
    handler (parser set-up and argument parsing) plus input loading;
    cli.self_s is the cli layer's own time inside the handler, report and
    triple write included; trace.coverage is the share of handler wall time
    inside named spans below the handler.
    """
    spans = recorder.spans
    handler = next((n for n in spans if n.startswith("cli.cmd_")), None)
    if handler is None:
        return {"handler": None}
    handler_s = spans[handler][1]
    outside = ("cli.main", "cli.build_parser")
    loads = [n for n in spans if n == "cli._load_doc" or n.startswith("cli.load_")]
    layer_self = {}
    for name, (_, _, self_s) in spans.items():
        if name not in outside:
            layer = layer_of(name)
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    main_s = spans["cli.main"][1] if "cli.main" in spans else handler_s
    return {
        "handler": handler,
        "handler_s": handler_s,
        "cli.load_s": main_s - handler_s + sum(spans[n][1] for n in loads),
        "trace.coverage": 1.0 - spans[handler][2] / handler_s,
        "layer_self_s": layer_self,
    }


def _run(cli, argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, time.perf_counter() - start, out.getvalue()


def _digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", choices=("untraced-first", "traced-first"), required=True)
    parser.add_argument("--output-file", help="file the invocation writes, for its size and digest")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
    cli = importlib.import_module("dilationkit.cli")
    modes = ["untraced", "traced"]
    if args.order == "traced-first":
        modes.reverse()
    threads = ("DILATIONKIT_THREADS", "OPENBLAS_NUM_THREADS")
    result = {"env": {k: os.environ.get(k) for k in threads}}
    # An untimed first invocation pays the one-time costs (lazy imports, heap
    # growth) that would otherwise land on whichever mode runs first.
    _run(cli, cli_argv)
    for mode in modes:
        recorder = Recorder()
        undo, absent = install(recorder) if mode == "traced" else ([], [])
        try:
            rc, wall, report = _run(cli, cli_argv)
        finally:
            restore(undo)
        entry = {"rc": rc, "wall_s": wall, "report": report,
                 "output_sha256": _digest(args.output_file) if args.output_file else None}
        if mode == "traced":
            out_bytes = len(report.encode("utf-8"))
            if args.output_file and os.path.exists(args.output_file):
                out_bytes += os.path.getsize(args.output_file)
            recorder.counts["cli.output_bytes"] = out_bytes
            absent += sorted(f"{name} (counter)" for name in recorder.broken)
            entry.update(spans=recorder.spans, counts=recorder.counts, absent=absent,
                         summary=summarize(recorder))
        result[mode] = entry
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
