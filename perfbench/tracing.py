"""Outside-in tracing of the kharita layers.

The tracer replaces module attributes and class attributes of the
package with timing wrappers, runs a workload pass, and puts every
original back. Nothing under src/ knows it is being traced.

A function imported by name into another module (``from .geo import
vincenty_m``) is looked up in the importing module's namespace, so each
such binding gets its own wrapper. Bindings are found by identity: every
attribute of every kharita module that holds the original object.

Each wrapped call keeps a frame on a stack while it runs. When it ends,
its duration is added to its own totals and to the child time of its
caller, so self time is duration minus the time covered by child spans.
Hot leaf functions (Vincenty, grid lookups) are only aggregated as call
count plus total and self time; stage-level functions also keep one span
record each (name, start, end, parent span), which is what the stage
agreement check against PipelineStats reads.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("ingest", "clustering", "graphs", "online", "spatial", "geo",
          "evaluate", "mapio")

_MARK = "_perfbench_wrapper"


@dataclass
class Target:
    """One function to trace, named by where it is defined.

    ``owner`` is a module name, or ``module:Class`` for a method.
    ``span`` keeps one record per call (stage-level functions only).
    ``count(where, args, result)`` returns numbers to add to the tracer's
    counts, for what the timings alone cannot give; ``where`` names the
    module (or class) whose binding was called.
    """

    owner: str
    attr: str
    span: bool = False
    count: object = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing recorded span, -1 at top level


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs wrappers with install(), removes them with uninstall().

    ``stats`` is keyed by binding, ``"<layer>.<function>@<module>"``;
    ``by_function`` sums the bindings of one function.
    """

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[Span] = []
        self._stack: list[list] = []     # open calls: [child_s, span index]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _kharita_modules()
        for t in self.targets:
            mod_name, _, cls_name = t.owner.partition(":")
            owner = importlib.import_module(f"kharita.{mod_name}")
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[t.attr]
                label = f"{mod_name}.{cls_name}.{t.attr}"
                self._patch(cls, t.attr, raw, label, cls_name, t)
                continue
            fn = getattr(owner, t.attr)
            label = f"{mod_name}.{t.attr}"
            bound = [(m, name) for m in modules
                     for name, obj in vars(m).items() if obj is fn]
            for m, name in bound:
                self._patch(m, name, fn, label, m.__name__.split(".")[-1], t)

    def _patch(self, owner, attr, raw, label, where, t: Target) -> None:
        key = f"{label}@{where}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, key, where, t))
        elif inspect.isgeneratorfunction(raw):
            wrapped = self._wrap_generator(raw, key)
        else:
            wrapped = self._wrap(raw, key, where, t)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        patched, self._patches = self._patches, []
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, raw in patched
               if vars(o).get(a) is not raw]
        bad += _leftover_wrappers()
        if bad:
            raise RuntimeError(f"attributes left wrapped: {', '.join(bad)}")

    # -- wrappers ----------------------------------------------------------

    def _enter(self, key: str, span: bool) -> list:
        frame = [0.0, -1]
        if span:
            parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
            frame[1] = len(self.spans)
            self.spans.append(Span(key, 0.0, 0.0, parent))
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, stat: Stat, t0: float, t1: float) -> None:
        self._stack.pop()
        dt = t1 - t0
        stat.calls += 1
        stat.total_s += dt
        stat.self_s += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt
        if frame[1] >= 0:
            sp = self.spans[frame[1]]
            sp.start, sp.end = t0, t1

    def _wrap(self, fn, key: str, where: str, t: Target):
        stat = self.stats.setdefault(key, Stat())
        clock = time.perf_counter
        enter, exit_, span, count = self._enter, self._exit, t.span, t.count
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(key, span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, stat, t0, clock())
            if count is not None:
                for name, n in count(where, args, result).items():
                    counts[name] = counts.get(name, 0) + n
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _wrap_generator(self, fn, key: str):
        """Times each step of the generator, so lazily consumed work is
        charged to the layer that does it, not to the consumer."""
        stat = self.stats.setdefault(key, Stat())
        clock = time.perf_counter
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = enter(key, False)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(frame, stat, t0, clock())
                yield item

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- summaries ---------------------------------------------------------

    def by_function(self) -> dict[str, Stat]:
        out: dict[str, Stat] = {}
        for key, s in self.stats.items():
            agg = out.setdefault(key.split("@")[0], Stat())
            agg.calls += s.calls
            agg.total_s += s.total_s
            agg.self_s += s.self_s
        return out

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, s in self.stats.items():
            out[key.split(".")[0]] += s.self_s
        return out


def _kharita_modules():
    import kharita
    import pkgutil
    names = [m.name for m in pkgutil.iter_modules(kharita.__path__)]
    return [importlib.import_module(f"kharita.{n}") for n in names
            if n not in ("__main__",)]


def _leftover_wrappers() -> list[str]:
    """Every module attribute and class attribute still holding a
    tracer wrapper, anywhere in the package."""
    left = []
    for m in _kharita_modules():
        for name, obj in vars(m).items():
            if getattr(obj, _MARK, False):
                left.append(f"{m.__name__}.{name}")
            if inspect.isclass(obj) and obj.__module__ == m.__name__:
                for attr, raw in vars(obj).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(fn, _MARK, False):
                        left.append(f"{m.__name__}.{name}.{attr}")
    return left
