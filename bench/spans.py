"""In-memory spans around the public functions of every defectline module.

``install`` replaces each public function of a layer module by a wrapper
that records a span, everywhere the function object is bound: in its own
module and under every name other modules imported it as (for example
``anholonomy.solve_channel`` and ``isospectral.det_spectrum``).  Calls
between layers therefore nest, and a span's self time is its duration minus
that of its direct children.  ``uninstall`` restores the originals.

Nothing is written while spans are recorded; ``write`` dumps them at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

# Layer modules in the package, and the layer a public function belongs to.
MODULES = ("unitary", "boundary", "spectrum", "oracles", "isospectral", "anholonomy")
# Every module whose namespace may hold an imported public function.
NAMESPACES = ("defectline", "defectline.cli") + tuple(f"defectline.{m}" for m in MODULES)


def layer_of(module: str, name: str) -> str:
    if module == "oracles":
        return "oracles.fd" if name == "fd_spectrum" else "oracles.det"
    return module


# Work counts taken at the outermost span of a layer: f(args, kwargs, result)
# -> {counter: value}.
def _frames(fn):
    signature = inspect.signature(fn)
    return lambda a, kw, r: {"isospectral.frames": len(signature.bind(*a, **kw).arguments["grid"]) + 1}


def _loop(a, kw, trajectories):
    lengths = [len(tr.t_values) for tr in trajectories]
    return {"anholonomy.points": sum(lengths), "anholonomy.accepted_steps": max(lengths) - 1}


COUNTERS = {
    "solve_spectrum": lambda a, kw, r: {"spectrum.levels": len(r.levels)},
    "solve_channel": lambda a, kw, r: {"spectrum.levels": len(r)},
    "det_spectrum": lambda a, kw, r: {"oracles.det.levels": len(r)},
    "fd_spectrum": lambda a, kw, r: {"oracles.fd.unknowns": 2 * r.n_interior - 2},
    "sample_eigenfunction": lambda a, kw, r: {"boundary.points": len(r)},
    "trace_path": _loop,
}


class Span:
    __slots__ = ("id", "op", "layer", "name", "parent", "start", "end", "child", "outer", "error")

    def __init__(self, id, op, layer, name, parent, outer):
        self.id, self.op, self.layer, self.name = id, op, layer, name
        self.parent, self.outer = parent, outer
        self.child = 0.0
        self.error = False
        self.start = time.perf_counter()

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and work counts; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[Span] = []
        self._open: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def enter(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        depth = self._open.get(layer, 0)
        span = Span(len(self.spans), self.op, layer, name, parent, depth == 0)
        self._open[layer] = depth + 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def exit(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        self._open[span.layer] -= 1
        if span.parent is not None:
            span.parent.child += span.dur

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, layer: str, fn):
        counter = _frames(fn) if fn.__name__ == "check_isospectral" else COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(span, error=True)
                raise
            self.exit(span)
            if counter is not None and span.outer:
                for name, value in counter(args, kwargs, result).items():
                    self.count(name, value)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        wrapped = {}
        for short in MODULES:
            module = importlib.import_module(f"defectline.{short}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[fn] = self.wrap(layer_of(short, name), fn)
        for modname in NAMESPACES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self, commands: list[str]) -> tuple[dict[str, float], dict[str, dict]]:
        """Per-layer calls, ms, self_ms and errors, plus a per-command breakdown.

        ``commands[op]`` names the subcommand of op ``op``.  Inclusive ms and
        calls count only the outermost span of a layer, so recursion within a
        layer is not counted twice.
        """
        out: dict[str, float] = dict(self.counts)
        by_command: dict[str, dict] = {}
        solves_in_loops = 0
        for s in self.spans:
            layer_self = s.dur - s.child
            out[f"{s.layer}.self_ms"] = out.get(f"{s.layer}.self_ms", 0.0) + 1e3 * layer_self
            cmd = by_command.setdefault(commands[s.op] if s.op >= 0 else "-", {"self_ms": {}, "ms": {}})
            cmd["self_ms"][s.layer] = cmd["self_ms"].get(s.layer, 0.0) + 1e3 * layer_self
            if not s.outer:
                continue
            out[f"{s.layer}.calls"] = out.get(f"{s.layer}.calls", 0) + 1
            out[f"{s.layer}.ms"] = out.get(f"{s.layer}.ms", 0.0) + 1e3 * s.dur
            out[f"{s.layer}.errors"] = out.get(f"{s.layer}.errors", 0) + int(s.error)
            cmd["ms"][s.layer] = cmd["ms"].get(s.layer, 0.0) + 1e3 * s.dur
            if s.layer == "spectrum":
                p = s.parent
                while p is not None and p.layer != "anholonomy":
                    p = p.parent
                solves_in_loops += p is not None
        out["anholonomy.channel_solves"] = solves_in_loops
        return out, by_command

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, times in microseconds from the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent.id if s.parent is not None else None,
                    "op": s.op, "layer": s.layer, "name": s.name,
                    "start_us": round(1e6 * (s.start - t0), 1), "dur_us": round(1e6 * s.dur, 1),
                    "error": s.error,
                }) + "\n")
