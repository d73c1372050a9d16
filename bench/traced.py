"""Run one anovaselect CLI command with a span around every call into the
public functions of the lattice, extremal, signals, selector and risk modules.

Usage (with the package importable, e.g. PYTHONPATH=src):

    python3 bench/traced.py SPANS.json -- table2 --config CFG --seed 10 --out DIR

Modules bind names at import (``risk`` holds its own ``null_shell_draw``,
``selector`` holds ``calibrate_radii``), so each function is replaced in every
``anovaselect`` namespace that holds it, by one shared wrapper.  A span
records its name, start, end, parent and thread.  Spans opened on the main
thread nest on a per-thread stack under the root span of the command; a span
opened on a worker thread with an empty stack takes as parent the innermost
open span of the main thread, which is the call that is waiting for the
workers (``risk.estimate_risk`` or ``risk.attenuation_experiment``).  Spans
stay in memory and are written to SPANS.json when the command ends.  The
exit code is the command's.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

ROOT = 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _ball_coords(args, kwargs, result):
    coords, rho = result
    return [int(coords.shape[0]), int(coords.nbytes + rho.nbytes)]


def _null_shell_draw(args, kwargs, result):
    counts = _arg(args, kwargs, 1, "counts")
    rows = int(result.shape[0])
    return [rows, rows * int((counts > 0).sum())]


def _coeff_vector(args, kwargs, result):
    return [int(_arg(args, kwargs, 0, "i")), int(_arg(args, kwargs, 1, "n"))]


def _estimate_risk(args, kwargs, result):
    return [int(result.false_positives), int(result.misses)]


def _attenuation_experiment(args, kwargs, result):
    # the null part is shared by every alpha, so its false positives count once
    return [int(result[0].false_positives), sum(int(r.misses) for r in result)]


# Per-call values derived from arguments or results, by span name.
EXTRACTORS = {
    "lattice.ball_coords": _ball_coords,
    "selector.null_shell_draw": _null_shell_draw,
    "signals.coeff_vector": _coeff_vector,
    "risk.estimate_risk": _estimate_risk,
    "risk.attenuation_experiment": _attenuation_experiment,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = ["workload"]
        self.spans: list[tuple] = []
        self.extract_errors: list[str] = []  # appended from any thread
        self._ids = itertools.count(ROOT + 1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._origin = time.perf_counter()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        extract = EXTRACTORS.get(name)
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack
        get_stack = self._stack
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else ROOT
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = None
            if extract is not None:
                try:
                    extra = extract(args, kwargs, result)
                except Exception:  # a changed signature must not change the program
                    self.extract_errors.append(name)
            spans.append((sid, parent, name_idx, start, end, ident(), extra))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function in every anovaselect namespace."""
        import anovaselect
        from anovaselect import cli, extremal, lattice, risk, selector, signals

        layer_modules = {m.__name__: m for m in (lattice, extremal, signals, selector, risk)}
        namespaces = [anovaselect, cli, *layer_modules.values()]
        wrappers: dict[int, object] = {}
        for mod in layer_modules.values():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = self.wrap(fn, f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}")
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(ns, attr, wrapper)

    def run_root(self, fn, *args):
        """Call fn under the root span (id 0), on the main thread."""
        self._main_stack.append(ROOT)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self.spans.append((ROOT, None, 0, start, end, threading.get_ident(), None))

    def dump(self, path: str) -> None:
        threads: dict[int, int] = {}
        rows = []
        for sid, parent, name_idx, start, end, tid, extra in self.spans:
            rows.append([sid, parent, name_idx,
                         round((start - self._origin) * 1e9),
                         round((end - self._origin) * 1e9),
                         threads.setdefault(tid, len(threads)), extra])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "extract_errors": len(self.extract_errors),
                       "spans": rows}, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from anovaselect import cli

    try:
        return tracer.run_root(cli.main, argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
