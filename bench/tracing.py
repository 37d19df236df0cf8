"""Spans and counters for the traced run, recorded from outside charkit.

``Tracer.install`` replaces each traced library function at the place its
callers look it up (a module global or a class attribute) by a wrapper
that records a span: name, start, end and the enclosing span.  The hottest
functions, called tens of thousands of times a pass, are only aggregated in
memory.  Self time is a span's duration minus the time of its direct child
spans.  ``Tracer.restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (owner module[:class], attribute, span name, hot).  Functions imported by
# name are wrapped in every module that binds them.
TARGETS = (
    ("charkit.charsolve", "dominant_weights_below", "lie_core.dominant_weights_below", False),
    ("charkit.tensor", "dominant_weights_below", "lie_core.dominant_weights_below", False),
    ("charkit.oracle", "dominant_weights_below", "lie_core.dominant_weights_below", False),
    ("charkit.charsolve", "weyl_dim", "lie_core.weyl_dim", True),
    ("charkit.tensor", "weyl_dim", "lie_core.weyl_dim", True),
    ("charkit.oracle", "weyl_dim", "lie_core.weyl_dim", True),
    ("charkit.fixtures", "weyl_dim", "lie_core.weyl_dim", True),
    ("charkit.charsolve", "eigenvalue", "lie_core.eigenvalue", True),
    ("charkit.csmodel", "eigenvalue", "lie_core.eigenvalue", True),
    ("charkit.csmodel:Delta1Operator", "image_terms", "csmodel.image_terms", True),
    ("charkit.csmodel:Delta1Operator", "apply_terms", "csmodel.apply_terms", False),
    ("charkit.charsolve:CharacterTable", "character", "charsolve.character", False),
    ("charkit.charsolve:CharacterTable", "character_m1", "charsolve.character_m1", False),
    ("charkit.charsolve:CharacterTable", "character_m2", "charsolve.character_m2", False),
    ("charkit.polyring:MultiPoly", "__mul__", "polyring.mul", False),
    ("charkit.polyring:MultiPoly", "to_text", "polyring.to_text", False),
    ("charkit.polyring:MultiPoly", "from_text", "polyring.from_text", False),
    ("charkit.fixtures", "load_chi_file", "fixtures.load_chi_file", False),
    ("charkit.tensor", "cg_decompose", "tensor.decompose", False),
    ("charkit.tensor", "monomial_decompose", "tensor.decompose", False),
    ("charkit.oracle", "freudenthal", "oracle.freudenthal", False),
    ("charkit.oracle", "weyl_orbit", "oracle.weyl_orbit", True),
    ("charkit.oracle", "torus_check", "oracle.torus_check", False),
)

# Per-layer metrics of a traced pass: (name, unit).  Counts repeat exactly
# for a fixed seed; times are medians over the traced passes of a run.
LAYER_METRICS = (
    ("setup.import_s", "s"),
    ("setup.corpus_s", "s"),
    ("setup.build_a_s", "s"),
    ("setup.cache_attach_s", "s"),
    ("lie_core.dominant_weights_below.calls", "count"),
    ("lie_core.dominant_weights_below.busy_s", "s"),
    ("lie_core.dominant_weights_below.weights", "count"),
    ("lie_core.weyl_dim.calls", "count"),
    ("lie_core.weyl_dim.busy_s", "s"),
    ("lie_core.eigenvalue.calls", "count"),
    ("csmodel.image_terms.calls", "count"),
    ("csmodel.image_terms.misses", "count"),
    ("csmodel.image_terms.hit_ratio", "ratio"),
    ("csmodel.image_terms.busy_s", "s"),
    ("csmodel.apply_terms.calls", "count"),
    ("csmodel.apply_terms.busy_s", "s"),
    ("csmodel.apply_terms.terms_in", "count"),
    ("charsolve.character.calls", "count"),
    ("charsolve.character.memory_hits", "count"),
    ("charsolve.character.disk_hits", "count"),
    ("charsolve.character.solves", "count"),
    ("charsolve.character.hit_ratio", "ratio"),
    ("charsolve.character.self_s", "s"),
    ("charsolve.character_m1.calls", "count"),
    ("charsolve.character_m1.busy_s", "s"),
    ("charsolve.character_m1.self_s", "s"),
    ("charsolve.character_m1.terms_out", "count"),
    ("charsolve.character_m1.max_coeff_bits", "bits"),
    ("charsolve.character_m2.calls", "count"),
    ("charsolve.character_m2.busy_s", "s"),
    ("charsolve.character_m2.self_s", "s"),
    ("charsolve.disk.reads", "count"),
    ("charsolve.disk.writes", "count"),
    ("charsolve.disk.bytes_written", "bytes"),
    ("polyring.mul.calls", "count"),
    ("polyring.mul.busy_s", "s"),
    ("polyring.mul.term_pairs", "count"),
    ("polyring.to_text.busy_s", "s"),
    ("polyring.from_text.busy_s", "s"),
    ("fixtures.load_chi_file.calls", "count"),
    ("fixtures.load_chi_file.busy_s", "s"),
    ("tensor.decompose.calls", "count"),
    ("tensor.decompose.busy_s", "s"),
    ("tensor.decompose.self_s", "s"),
    ("tensor.decompose.constituents", "count"),
    ("oracle.freudenthal.calls", "count"),
    ("oracle.freudenthal.busy_s", "s"),
    ("oracle.freudenthal.self_s", "s"),
    ("oracle.weyl_orbit.busy_s", "s"),
    ("oracle.torus_check.calls", "count"),
    ("oracle.torus_check.busy_s", "s"),
    ("oracle.torus_check.self_s", "s"),
    ("trace_overhead", "ratio"),
)

SOLVERS = ("charsolve.character_m1", "charsolve.character_m2")


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _Frame:
    __slots__ = ("name", "id", "child_s", "kids")

    def __init__(self, name, span_id):
        self.name = name
        self.id = span_id
        self.child_s = 0.0
        self.kids = set()


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self, clock=time.perf_counter):
        # A clock that leaves out the calibration kernel keeps it out of
        # every span.
        self.clock = clock
        self.spans = []          # (id, name, start, end, parent id or 0)
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._images_seen = set()

    # ------------------------------------------------------------ patching
    def install(self):
        for path, attr, name, hot in TARGETS:
            owner = _resolve(path)
            # A later refactor may drop a binding; its layer then reads 0.
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__, hot))
            else:
                patched = self._wrap(name, original, hot)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hot):
        tracer = self
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = 0
            if not hot:
                tracer._next_id += 1
                span_id = tracer._next_id
            frame = _Frame(name, span_id)
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                agg = tracer.stats[name]
                agg["calls"] += 1
                agg["busy_s"] += duration
                agg["self_s"] += duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                    parent.kids.add(name)
                if not hot:
                    tracer.spans.append((span_id, name, start, end,
                                         parent.id if parent else 0))
            if after is not None:
                after(frame, parent, args, result)
            return result

        return wrapper

    # ------------------------------------------- per-function counters
    def _after_lie_core_dominant_weights_below(self, frame, parent, args, result):
        self.stats[frame.name]["weights"] += len(result)

    def _after_csmodel_image_terms(self, frame, parent, args, result):
        key = (id(args[0]), tuple(args[1]))
        if key not in self._images_seen:
            self._images_seen.add(key)
            self.stats[frame.name]["misses"] += 1

    def _after_csmodel_apply_terms(self, frame, parent, args, result):
        self.stats[frame.name]["terms_in"] += len(args[1])

    def _after_charsolve_character(self, frame, parent, args, result):
        if frame.kids.intersection(SOLVERS):
            kind = "solves"
        elif "fixtures.load_chi_file" in frame.kids:
            kind = "disk_hits"
        else:
            kind = "memory_hits"
        self.stats[frame.name][kind] += 1

    def _after_charsolve_character_m1(self, frame, parent, args, result):
        agg = self.stats[frame.name]
        agg["terms_out"] += len(result)
        bits = max((abs(c).bit_length() for c in result.terms.values()),
                   default=0)
        agg["max_coeff_bits"] = max(agg["max_coeff_bits"], bits)

    def _after_polyring_mul(self, frame, parent, args, result):
        a, b = args
        self.stats[frame.name]["term_pairs"] += (
            len(a) * len(b) if hasattr(b, "terms") else len(a))

    def _after_polyring_to_text(self, frame, parent, args, result):
        if parent is not None and parent.name == "charsolve.character":
            disk = self.stats["charsolve.disk"]
            disk["writes"] += 1
            disk["bytes_written"] += len(result.encode())

    def _after_fixtures_load_chi_file(self, frame, parent, args, result):
        if parent is not None and parent.name == "charsolve.character":
            self.stats["charsolve.disk"]["reads"] += 1

    def _after_tensor_decompose(self, frame, parent, args, result):
        self.stats[frame.name]["constituents"] += len(result)

    # ------------------------------------------------------------ results
    def layer_values(self):
        """Every counter and time of LAYER_METRICS that a pass records
        (the setup timers and trace_overhead come from the runner)."""
        s = self.stats
        out = {}
        for name, _unit in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if layer in ("setup", "") or field == "hit_ratio":
                continue
            out[name] = s[layer][field] if layer in s else 0
        images = s["csmodel.image_terms"]
        out["csmodel.image_terms.hit_ratio"] = _ratio(
            images["calls"] - images["misses"], images["calls"])
        chars = s["charsolve.character"]
        out["charsolve.character.hit_ratio"] = _ratio(
            chars["memory_hits"] + chars["disk_hits"], chars["calls"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0
