"""Per-layer spans for a traced benchmark run, recorded from outside gonb.

The layers are the modules ``cli``, ``io``, ``gabor``, ``fourier`` and
``polytope``. Every function one layer module imports from another is
replaced, in the importing module's namespace only, by a wrapper that records
a span; so is every public function of ``gonb.io``, because ``gonb.cli``
reaches io through the module object. A span belongs to the layer that
defines the function. A layer's self time is the sum of its spans' durations
minus the time of their child spans. Calls inside one module (for example
``divdiff_exp`` from ``ft_indicator``) are not wrapped, so they count as the
caller's self time.

A few counts are derived from what crosses a boundary (the shifts passed to
``translate_intersection`` and the flags it returns, the triangulation size
times the number of frequencies for a transform), so they keep their meaning
when a kernel is rewritten.
"""

from __future__ import annotations

import inspect
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import gonb.cli
import gonb.fourier
import gonb.gabor
import gonb.io
import gonb.polytope

LAYERS = {
    "gonb.cli": "cli",
    "gonb.io": "io",
    "gonb.gabor": "gabor",
    "gonb.fourier": "fourier",
    "gonb.polytope": "polytope",
}
_MODULES = [gonb.cli, gonb.io, gonb.gabor, gonb.fourier, gonb.polytope]

FT = ("ft_indicator", "ft_indicator_many")
QUAD = ("ft_indicator_quadrature", "ft_indicator_quadrature_many")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _lams(args, kwargs):
    """The frequency argument of a transform (``lam`` or ``lams``)."""
    return args[1] if len(args) > 1 else kwargs.get("lams", kwargs.get("lam"))


def _n_rows(lams, dim) -> int:
    return int(np.asarray(lams, dtype=float).size // dim)


def _live(P) -> bool:
    return not (P.empty or P.degenerate)


class Tracer:
    """Spans ``[name, parent, start, end]`` plus counts taken at boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.shifts = set()
        self._live_translates = Counter()  # parent span -> non-empty results

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(sid)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(sid, rec[1], args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts at boundaries --------------------------------------------
    def _observe_translate_intersection(self, sid, parent, args, kwargs, Q):
        t = np.asarray(_arg(args, kwargs, 1, "t"), dtype=float).ravel()
        self.counts["translate.calls"] += 1
        self.shifts.add(tuple(np.round(t, 9)))
        if _live(Q):
            self._live_translates[parent] += 1
        else:
            self.counts["translate.empty"] += 1

    def _observe_ft_indicator(self, sid, parent, args, kwargs, out):
        P = _arg(args, kwargs, 0, "P")
        if _live(P):
            rows = gonb.polytope.triangulate(P).shape[0] * _n_rows(_lams(args, kwargs), P.dim)
            self.counts["ft.rows"] += rows

    _observe_ft_indicator_many = _observe_ft_indicator

    def _observe_ft_indicator_quadrature(self, sid, parent, args, kwargs, out):
        P = _arg(args, kwargs, 0, "P")
        if _live(P):
            n = _arg(args, kwargs, 2, "n_per_axis")
            self.counts["quad.points"] += n ** P.dim * _n_rows(_lams(args, kwargs), P.dim)

    _observe_ft_indicator_quadrature_many = _observe_ft_indicator_quadrature

    def _observe_cone_constant(self, sid, parent, args, kwargs, out):
        # cone_constant evaluates one residual per (non-empty translate,
        # cone frequency); both factors are visible from outside
        P = _arg(args, kwargs, 0, "P")
        omega = _arg(args, kwargs, 2, "omega")
        params = args[3] if len(args) > 3 else kwargs.get(
            "params", gonb.fourier.ConeScanParams())
        n_lam = gonb.fourier.cone_lambda_grid(P.dim, omega, params).shape[0]
        self.counts["residual.calls"] += self._live_translates[sid] * n_lam

    def _observe_divergence_residual(self, sid, parent, args, kwargs, out):
        self.counts["residual.calls"] += 1

    # -- aggregation ------------------------------------------------------
    def layer_metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = Counter()
        by_name = Counter()
        calls = Counter()
        for (name, parent, t0, t1), c in zip(spans, child):
            layer = name.split(".", 1)[0]
            self_s[layer] += t1 - t0 - c
            by_name[name] += t1 - t0 - c
            calls[name] += 1
        load_s = sum(t1 - t0 for name, _, t0, t1 in spans
                     if name.startswith("io.load_"))
        ft_self = sum(by_name["fourier." + f] for f in FT)
        quad_self = sum(by_name["fourier." + f] for f in QUAD)
        n_tr = self.counts["translate.calls"]
        return {
            "gabor.self_s": self_s["gabor"],
            "polytope.self_s": self_s["polytope"],
            "polytope.translate.calls": n_tr,
            "polytope.translate.self_s": by_name["polytope.translate_intersection"],
            "polytope.translate.empty_ratio":
                self.counts["translate.empty"] / n_tr if n_tr else 0.0,
            "polytope.translate.distinct_shift_ratio":
                len(self.shifts) / n_tr if n_tr else 0.0,
            "polytope.facets.calls": calls["polytope.facets"],
            "polytope.triangulate.calls": calls["polytope.triangulate"],
            "fourier.self_s": self_s["fourier"],
            "fourier.ft.calls": sum(calls["fourier." + f] for f in FT),
            "fourier.ft.rows": self.counts["ft.rows"],
            "fourier.ft.self_s": ft_self,
            "fourier.ft.rows_per_s": self.counts["ft.rows"] / ft_self if ft_self else 0.0,
            "fourier.cone.self_s": by_name["fourier.cone_constant"],
            "fourier.residual.calls": self.counts["residual.calls"],
            "fourier.quad.calls": sum(calls["fourier." + f] for f in QUAD),
            "fourier.quad.points": self.counts["quad.points"],
            "fourier.quad.self_s": quad_self,
            "fourier.quad.points_per_s":
                self.counts["quad.points"] / quad_self if quad_self else 0.0,
            "io.load_s": load_s,
            "cli.self_s": self_s["cli"],
        }

    def dump(self, path) -> None:
        """Write the spans as ``id,parent,name,start_s,end_s`` lines."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")


def _boundaries():
    """(module, attribute, span name) for every wrapped call site."""
    out = []
    for mod in _MODULES:
        for attr, obj in vars(mod).items():
            home = LAYERS.get(getattr(obj, "__module__", None))
            if inspect.isfunction(obj) and home and obj.__module__ != mod.__name__:
                out.append((mod, attr, f"{home}.{attr}"))
    for attr, obj in vars(gonb.io).items():
        if inspect.isfunction(obj) and obj.__module__ == "gonb.io" \
                and not attr.startswith("_"):
            out.append((gonb.io, attr, f"io.{attr}"))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the duration of the block; the program's
    modules are restored on exit."""
    saved = []
    try:
        for mod, attr, name in _boundaries():
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn))
        yield tracer.wrap("cli.main", gonb.cli.main)
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# import cost per layer
# ---------------------------------------------------------------------------


def _import_tree(stderr: str):
    """Parse ``python -X importtime`` output into (name, cumulative_us, kids)."""
    pending = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        kids = []
        while pending and pending[-1][0] > depth:
            kids.append(pending.pop())
        pending.append((depth, name.strip(), int(cum), kids))
    return pending


def _layer_import_us(nodes, out):
    """Cumulative import time of each layer module minus that of the layer
    modules it imports, so third-party packages are charged to the layer
    that first imports them."""
    for _, name, cum, kids in nodes:
        inner = []
        stack = list(kids)
        while stack:
            node = stack.pop()
            if node[1] in LAYERS:
                inner.append(node)
            else:
                stack.extend(node[3])
        if name in LAYERS:
            out[LAYERS[name]] = cum - sum(n[2] for n in inner)
        _layer_import_us(kids, out)
    return out


def import_seconds(env: dict, cwd, repeats: int) -> dict:
    """Median over fresh interpreters of each layer's import time."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gonb.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
            check=True)
        runs.append(_layer_import_us(_import_tree(proc.stderr), {}))
    return {f"{layer}.import_s": statistics.median(r.get(layer, 0) for r in runs) / 1e6
            for layer in LAYERS.values()}
