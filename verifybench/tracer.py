"""Layer trace taken from outside the program.

``Tracer.install`` replaces each listed public function of ``orbitope_lab``
with a timing wrapper, in every ``orbitope_lab`` module namespace that
binds it.  That catches ``from .x import f`` bindings as well as calls by
bare name inside the defining module.  ``linalg`` gets no span: its calls
are too fine-grained to wrap, so their cost lands in the callers' self
time.

A span records its name, start, end, parent span and case id.  Counts are
read from arguments and return values after the span has ended; the time
spent counting is charged to neither the span nor its parent's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from math import comb


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _hull_counts(sig, args, kwargs, result):
    points = _arg(sig, args, kwargs, "points")
    if isinstance(points, (list, tuple)):
        m = len({tuple(p) for p in points})
    else:
        m = len(result.vertices)
    d = result.dim
    return {
        "polytope.hull.subsets": comb(m, d) if d >= 2 else 0,
        "polytope.hull.facets": len(result.facets),
    }


def _local_max_counts(sig, args, kwargs, result):
    return {"matmodel.fd_expm_calls": _arg(sig, args, kwargs, "n_directions")}


def _hessian_counts(sig, args, kwargs, result):
    trials = _arg(sig, args, kwargs, "trials")
    return {"matmodel.fd_expm_calls": trials, "matmodel.hessian_check.trials": trials}


def _len_as(name):
    return lambda sig, args, kwargs, result: {name: len(result)}


# (module, function) -> counter, or None when only time and calls are kept.
LAYERS = {
    ("rootsys", "build_root_system"): None,
    ("rootsys", "share_closed_chamber"): None,
    ("weyl", "generate"): lambda s, a, k, r: {"weyl.group_order": r.order},
    ("weyl", "orbit"): _len_as("weyl.orbit_points"),
    ("weyl", "to_dominant"): None,
    ("polytope", "hull"): _hull_counts,
    ("polytope", "face_lattice"): _len_as("polytope.faces"),
    ("polytope", "vertex_permutations"): lambda s, a, k, r: {
        "polytope.vertex_images": len(r) * len(r[0]) if r else 0
    },
    ("polytope", "faces_up_to_group"): _len_as("polytope.face_orbits"),
    ("polytope", "exposed_face"): None,
    ("facelab", "classify_faces"): _len_as("facelab.descriptors"),
    ("facelab", "parabolic_subgroup"): None,
    ("facelab", "verify_bijection"): None,
    ("matmodel", "make_model"): None,
    ("matmodel", "sample_orbit"): lambda s, a, k, r: {"matmodel.samples": len(r.points)},
    ("matmodel", "spectrum_deviation"): None,
    ("matmodel", "kostant_check"): None,
    ("matmodel", "argmax_height"): None,
    ("matmodel", "ext_face_dim_check"): None,
    ("matmodel", "local_max_test"): _local_max_counts,
    ("matmodel", "hessian_check"): _hessian_counts,
    ("matmodel", "verification_report"): None,
    ("cli", "main"): None,
    ("jsonio", "dump_report"): lambda s, a, k, r: {
        "jsonio.report_bytes": len(r.encode("utf-8"))
    },
}


class Tracer:
    """In-memory span recorder; ``case`` tags the spans that follow."""

    def __init__(self):
        self.case = None
        self.spans = []  # [name, start, end, parent index, case]
        self._stack = []  # [span index, seconds in child spans]
        self._counts = defaultdict(lambda: defaultdict(int))
        self._self = defaultdict(lambda: defaultdict(float))
        self._calls = defaultdict(lambda: defaultdict(int))

    def install(self) -> None:
        """Wrap every listed function in every orbitope_lab namespace."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "orbitope_lab" or name.startswith("orbitope_lab.")
        ]
        for (module, function), counter in LAYERS.items():
            original = getattr(sys.modules[f"orbitope_lab.{module}"], function)
            wrapper = self._wrap(f"{module}.{function}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter is not None else None
        spans = self.spans
        stack = self._stack

        def span(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            record = [name, 0.0, 0.0, parent, self.case]
            spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record[1], record[2] = start, end
                self._self[self.case][name] += (end - start) - frame[1]
                self._calls[self.case][name] += 1
                if stack:
                    stack[-1][1] += end - start
            if counter is not None:
                for key, value in counter(sig, args, kwargs, result).items():
                    self._counts[self.case][key] += value
                if stack:
                    stack[-1][1] += time.perf_counter() - end
            return result

        return span

    def case_layers(self, case) -> dict:
        """Self seconds, calls and counts of one case, keyed by metric name."""
        out = {}
        for name in (f"{m}.{f}" for m, f in LAYERS):
            out[f"{name}.self_s"] = self._self[case].get(name, 0.0)
            out[f"{name}.calls"] = self._calls[case].get(name, 0)
        out.update(self._counts[case])
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, case in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "case": case}) + "\n")
