"""Spans and call counts around nama's public functions, set from outside.

The tracer replaces selected functions in every ``nama`` namespace that
holds them, so a call is seen whichever module resolves the name (for
example ``nama.realma.dual_cell_2d`` as well as
``nama.convexgeom.dual_cell_2d``).  Methods are replaced on their class.
``uninstall`` puts the originals back, so untraced runs execute the
program exactly as shipped.

Each call of a target bumps its counter.  Targets in ``span`` mode also
record a span ``[name, start, end, parent]``; ``outer`` mode records a
span only for the outermost call of a recursive function.  Hot inner
functions are ``count`` only, so their time shows in the self time of the
spanned caller.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric stem, module, attribute path, mode); an attribute path with a dot
# names a method on a class of that module.
TARGETS = (
    ("convexgeom.dual_cell_2d", "nama.convexgeom", "dual_cell_2d", "span"),
    ("convexgeom.dual_cell_1d", "nama.convexgeom", "dual_cell_1d", "span"),
    ("convexgeom.clip_halfplane", "nama.convexgeom", "clip_halfplane",
     "count"),
    ("convexgeom.box_simplex_volume", "nama.convexgeom",
     "box_simplex_volume", "count"),
    ("realma.solve", "nama.realma", "solve", "span"),
    ("realma.from_density", "nama.realma", "TargetMeasure.from_density",
     "span"),
    ("realma.ma_measure", "nama.realma", "ma_measure", "span"),
    ("realma.ma_measure_oracle", "nama.realma", "ma_measure_oracle", "span"),
    ("realma.lower_hull_planes", "nama.realma", "lower_hull_planes", "span"),
    ("potential.na_ma_model_metric", "nama.potential", "na_ma_model_metric",
     "span"),
    ("potential.table_value", "nama.potential", "IntersectionTable.value",
     "count"),
    ("measures.mass_of", "nama.measures", "AtomicMeasure.mass_of", "span"),
    ("skeleton.build_model", "nama.skeleton", "build_model", "span"),
    ("comparison.cycle_model", "nama.comparison", "cycle_model", "span"),
    ("comparison.cycle_table", "nama.comparison", "cycle_table", "span"),
    ("comparison.vilsmeier_check_1d", "nama.comparison",
     "vilsmeier_check_1d", "span"),
    ("comparison.determinant", "nama.comparison", "determinant", "outer"),
    ("forms.pfaffian", "nama.forms", "pfaffian", "outer"),
    ("hybrid.sample_cy_measure", "nama.hybrid", "sample_cy_measure", "span"),
    ("hybrid.pushforward_distance", "nama.hybrid", "pushforward_distance",
     "span"),
    ("hybrid.dyadic_cell_volumes", "nama.hybrid", "dyadic_cell_volumes",
     "span"),
    ("hybrid.volume_growth_exponent", "nama.hybrid",
     "volume_growth_exponent", "span"),
    ("cli.main", "nama.cli", "main", "span"),
    ("config.load_document", "nama.config", "load_document", "span"),
)

MODULES = ("convexgeom", "realma", "potential", "comparison", "measures",
           "skeleton", "hybrid", "forms", "cli", "config")


class Tracer:
    """Install wrappers, collect spans and counts, summarise per layer."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = {stem: [0] for stem, *_ in TARGETS}
        self.missing = []
        self._stack = []
        self._saved = []         # (owner, attribute, original value)
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def install(self):
        if self._saved:
            return
        self.missing = []
        for stem, module_name, path, mode in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name \
                else module
            if owner is None or attr not in vars(owner):
                self.missing.append(stem)
                continue
            if owner_name:
                self._patch_method(owner, attr, stem, mode)
            else:
                self._patch_function(getattr(owner, attr), attr, stem, mode)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _patch_function(self, original, attr, stem, mode):
        wrapper = self._wrap(original, stem, mode)
        for name, module in list(sys.modules.items()):
            if name != "nama" and not name.startswith("nama."):
                continue
            if getattr(module, attr, None) is original:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, stem, mode):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, stem, mode))
        else:
            wrapped = self._wrap(raw, stem, mode)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _wrap(self, fn, stem, mode):
        cell = self.counts[stem]
        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        t0 = self._t0
        depth = [0]
        outer_only = mode == "outer"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            cell[0] += 1
            if outer_only and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            span = [stem, clock() - t0, None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock() - t0
                stack.pop()
                depth[0] -= 1
        return spanned

    # -- summaries --------------------------------------------------------

    def layer_totals(self):
        """Per-target calls, span seconds and self seconds; per-module self.

        A span's self time is its duration minus the durations of its
        child spans.  Spans nest strictly (one thread, synchronous calls),
        so children never overlap one another.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for stem, cell in self.counts.items():
            out[f"{stem}.calls"] = cell[0]
            out[f"{stem}.s"] = 0.0
            out[f"{stem}.self_s"] = 0.0
        for module in MODULES:
            out[f"{module}.self_s"] = 0.0
        for k, (name, start, end, _) in enumerate(self.spans):
            own = (end - start) - child[k]
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
        return out

    def dump(self, path, extra):
        doc = dict(extra)
        doc["missing_targets"] = self.missing
        doc["counts"] = {stem: cell[0] for stem, cell in self.counts.items()}
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
