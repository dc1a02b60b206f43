"""Spans around the package's public functions, installed from outside.

:meth:`Recorder.install` replaces each function listed in ``LAYERS``, in
every loaded ``fanocone`` module that binds it, with a wrapper that records
a span (id, parent id, name, start, end) and adds the counters computed
from the result.  Internal calls go through module globals, so they are
recorded too.  A function that a later version removes or renames is
skipped, and its spans are simply absent.  Spans stay in memory until
:meth:`Recorder.write`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> counters read off the result
LAYERS = {
    "singularity.gorenstein_vector": None,
    "cones.dual_cone": lambda r: {"cones.dual_rays": len(r.rays)},
    "cones.triangulate": lambda r: {"cones.simplices": len(r.simplices), "cones.sum_det": sum(r.dets)},
    "cones.half_open_masks": None,
    "cones.parallelepiped_points": lambda r: {"cones.lattice_points": len(r)},
    "volume.build_volume_form": None,
    "volume.vol": None,
    "volume.grad_vol": None,
    "volume.hess_vol": None,
    "volume.minimize_volume": lambda r: {"volume.newton_iters": r.newton_iters},
    "volume.is_ksemistable": None,
    "futaki.futaki": None,
    "character.enumerate_semigroup": lambda r: {"character.semigroup_points": len(r)},
    "character.character_series": None,
    "character.leading_coefficient": None,
}

class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = [0]
        self.next_id = 1
        self.active = True  # paused while the benchmark checks answers
        self.restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid, parent = self.next_id, self.stack[-1]
        self.next_id += 1
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "fanocone" or k.startswith("fanocone.")]
        for name, counter in LAYERS.items():
            module = sys.modules.get("fanocone." + name.split(".")[0])
            original = getattr(module, name.split(".")[1], None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.restore):
            setattr(mod, attr, original)
        self.restore.clear()

    def self_ms(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children
        cover, summed over the run, in ms."""
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0 - child[sid]) * 1e3
        return out

    def metrics(self, per_layer: list[dict], extra: dict[str, float], scale: float) -> dict[str, dict]:
        """The ``per_layer`` metrics of BENCHMARK.json: a value in ``extra``
        as it is; else a ``<span>.ms`` metric, the span's self time times
        ``scale``, which takes it to the reference speed (see
        :mod:`harness`); else a count (``<span>.calls`` or a counter of
        ``LAYERS``), 0 when nothing was recorded."""
        own = self.self_ms()
        m = {}
        for metric in per_layer:
            name, unit = metric["name"], metric["unit"]
            if name in extra:
                value = extra[name]
            elif unit == "ms":
                value = own.get(name.removesuffix(".ms"), 0.0) * scale
            else:
                value = self.counts.get(name, 0)
            m[name] = {"value": value, "unit": unit}
        return m

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
