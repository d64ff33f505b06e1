"""Outside-in layer tracing for one benchmark pass.

The tracer replaces each public function of the pqelliptic layer modules
with a span-recording wrapper at every module attribute bound to it, so a
function imported by name into another module (``gauss_2f1`` into
``elliptic``, ``delta_analysis`` and ``claims``; ``tanh_sinh_01`` into
``special`` and ``claims``) is traced at every call site. The CLI commands
are traced through their click callbacks and each claim through
``claims.run_claim``. Nothing in ``src/`` is edited; ``restore()`` puts every
original object back.

Spans are kept in flat in-memory arrays (name, parent, start, end, tag) and
are summarised or written out after the pass. Self time is a span's
duration minus the durations of its direct children; the program is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import gzip
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Layer modules of the package, in dependency order.
LAYERS = ("special", "quadrature", "gentrig", "elliptic", "delta_analysis", "claims", "cli")

_NO_TAG = 0


class Tracer:
    """Wraps the public functions of every layer and records spans."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = ["-"]
        self._tag_ids: dict[str, int] = {"-": _NO_TAG}
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_tag = array("H")
        self._stack: list[int] = []
        self.integrand_evals = 0
        self.f21_args: set = set()
        self.f21_z_gt_09 = 0
        self.f21_nonfinite_err = 0
        self.delta_args: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- ids ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _tag_id(self, tag: str) -> int:
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ids[tag]

    # -- span recording ----------------------------------------------------

    def _wrap(self, fn, name: str, hook=None, label=None):
        """Span wrapper; hook(args, result) -> tag name, label(args, kwargs) -> span name."""
        fixed_id = self._name_id(name)
        name_id_of, tag_id_of = self._name_id, self._tag_id
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_tag = self.span_start, self.span_end, self.span_tag
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(fixed_id if label is None else name_id_of(label(args, kwargs)))
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0)
            span_tag.append(_NO_TAG)
            stack.append(idx)
            span_start.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span_end[idx] = now()
                span_tag[idx] = tag_id_of("raised:" + type(exc).__name__)
                stack.pop()
                raise
            span_end[idx] = now()
            if hook is not None:
                span_tag[idx] = tag_id_of(hook(args, result))
            stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- special hooks -----------------------------------------------------

    def _f21_hook(self, args, result) -> str:
        hyp = args[0]
        self.f21_args.add((hyp.a, hyp.b, hyp.c, hyp.z))
        if hyp.z > 0.9:
            self.f21_z_gt_09 += 1
        if not math.isfinite(result.err_estimate):
            self.f21_nonfinite_err += 1
        return result.method

    def _delta_hook(self, args, result) -> str:
        params, r = args[0], args[1]
        self.delta_args.add((params.p, params.q, r))
        return result.method

    def _tanh_sinh(self, fn, name):
        inner = self._wrap(fn, name)
        tracer = self

        def traced(f, *args, **kwargs):
            def counted(t, tm):
                tracer.integrand_evals += 1
                return f(t, tm)

            return inner(counted, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- install / restore -------------------------------------------------

    def _modules(self) -> list:
        prefix = self.package.__name__
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == prefix or key.startswith(prefix + "."))]

    def install(self) -> None:
        """Replace every public layer function at every attribute bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        prefix = self.package.__name__
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "special.gauss_2f1":
                    wrapper = self._wrap(obj, name, hook=self._f21_hook)
                elif name == "delta_analysis.delta_result":
                    wrapper = self._wrap(obj, name, hook=self._delta_hook)
                elif name == "quadrature.tanh_sinh_01":
                    wrapper = self._tanh_sinh(obj, name)
                elif name == "claims.run_claim":
                    wrapper = self._wrap(obj, name,
                                         label=lambda a, k: f"claims.{a[0] if a else k['claim_id']}")
                elif name.startswith("delta_analysis.") or name.startswith("elliptic."):
                    wrapper = self._wrap(obj, name, hook=_method_tag)
                else:
                    wrapper = self._wrap(obj, name)
                for site in modules:
                    for site_attr, value in list(vars(site).items()):
                        if value is obj:
                            self._patch(site, site_attr, wrapper)
        cli = sys.modules[f"{prefix}.cli"]
        for command in cli.main.commands.values():
            original = command.callback
            self._patch(command, "callback", self._wrap(original, f"cli.{command.name}"))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original object back, in reverse order of patching."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def patched_sites(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name and per (name, tag): calls, total and self seconds."""
        n = len(self.span_name)
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_ns[parent] += self.span_end[i] - self.span_start[i]
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        by_tag: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0})
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            entry = by_name[name]
            entry["calls"] += 1
            entry["total_s"] += dur * 1e-9
            entry["self_s"] += (dur - child_ns[i]) * 1e-9
            tag = self.span_tag[i]
            if tag != _NO_TAG:
                tagged = by_tag[f"{name}|{self.tags[tag]}"]
                tagged["calls"] += 1
                tagged["total_s"] += dur * 1e-9
        return {"spans": n, "by_name": dict(by_name), "by_tag": dict(by_tag)}

    def write_spans(self, path: Path) -> None:
        """Write every span as one CSV line (gzip) for offline inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,parent,name,tag,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                handle.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                             f"{self.tags[self.span_tag[i]]},{self.span_start[i]},"
                             f"{self.span_end[i]}\n")


def _method_tag(args, result) -> str:
    method = getattr(result, "method", None)
    return method if isinstance(method, str) else "-"
