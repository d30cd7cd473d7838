"""Spans and call counters recorded around calls into the twotier package.

The package itself is not edited. A :class:`Tracer` replaces functions and
methods at run time and puts the originals back on :meth:`Tracer.close`.
A module-level function is replaced in every twotier module that holds it,
including names imported into another module (``two_tier_decode`` in
``twotier.sim``) and module-level dict entries (``decoders.METRICS``).

Coarse boundaries get spans (name, start, end, parent, request). Hot inner
functions get call counters, some with summed time, because a span per
call would cost more than the call.
"""

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, "module[:Class]", attribute)
SPANS = (
    ("config.load", "twotier.config", "load_config"),
    ("config.build_field", "twotier.config:RunConfig", "build_field"),
    ("codes.build_codebook", "twotier.codes", "build_codebook"),
    ("union.build", "twotier.union", "build_union"),
    ("sim.code_setup", "twotier.sim:CodeSetup", "__post_init__"),
    ("union.verify_lemmas", "twotier.union", "verify_lemmas"),
    ("union.min_distance", "twotier.union:UnionCode", "min_distance"),
    ("union.component_min_distances", "twotier.union", "component_min_distances"),
    ("union.restrict", "twotier.union:UnionCode", "restrict"),
    ("decoders.two_tier_decode", "twotier.decoders", "two_tier_decode"),
    ("decoders.tier1", "twotier.decoders", "tier1_decode"),
    ("decoders.tier2", "twotier.decoders", "tier2_subspace_decode"),
    ("decoders.tier2", "twotier.decoders", "tier2_list_decode"),
    ("decoders.tier2", "twotier.decoders", "tier2_rank_decode"),
    ("sim.run_experiment", "twotier.sim", "run_experiment"),
    ("sim.run_trial", "twotier.sim", "run_trial"),
    ("sim.stream", "twotier.sim", "stream"),
)

# Counted only: these run millions of times during encoding.
COUNTED = (
    ("fields.mul", "twotier.fields:FieldElement", "__mul__"),
    ("fields.frobenius", "twotier.fields:FieldElement", "frobenius"),
    ("linpoly.evaluate", "twotier.linpoly:LinearizedPoly", "evaluate"),
)

# Counted with summed time; nested calls are timed in both counters.
TIMED = (
    ("metrics.injection_distance", "twotier.metrics", "injection_distance"),
    ("metrics.rank_distance", "twotier.metrics", "rank_distance"),
    ("linalg.rref", "twotier.linalg", "rref"),
)


def _tier1_outcome(args, result):
    return result.outcome


def _codebook_size(args, result):
    return len(args[1])


# What a span keeps from its call, beside its times.
SPAN_ATTRS = {"decoders.tier1": _tier1_outcome, "decoders.tier2": _codebook_size}

NAME, START, END, PARENT, REQUEST, ATTR = range(6)


class Tracer:
    """In-memory spans and counters; :meth:`install` starts recording."""

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.request = None
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _shut(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; yields its index."""
        index = len(self.spans)
        rec = self._open(name)
        try:
            yield index
        finally:
            self._shut(rec)

    def _spanned(self, name, fn):
        attr_of = SPAN_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._shut(rec)
            if attr_of is not None:
                rec[ATTR] = attr_of(args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._spanned), (COUNTED, self._counted),
                            (TIMED, self._timed)):
            for name, where, attr in table:
                self._patch(where, attr, lambda fn, name=name, make=make: make(name, fn))

    def _patch(self, where, attr, wrap):
        module_name, _, class_name = where.partition(":")
        module = sys.modules[module_name]
        if class_name:
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, wrap(original))
            self._undo.append(functools.partial(setattr, owner, attr, original))
            return
        original = getattr(module, attr)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twotier" or mod_name.startswith("twotier.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(functools.partial(setattr, mod, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append(functools.partial(value.__setitem__, k, original))

    def close(self):
        """Put every patched attribute back; recorded data stays."""
        while self._undo:
            self._undo.pop()()

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its child spans cover.

        Raises ValueError if a child is not inside its parent or two
        children of one parent overlap, since self times would then not
        add up to the parent's duration.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        last_end = {}
        for i, rec in enumerate(spans):
            parent = rec[PARENT]
            if rec[END] < rec[START]:
                raise ValueError(f"span {i} {rec[NAME]} ends before it starts")
            if parent < 0:
                continue
            outer = spans[parent]
            if rec[START] < outer[START] or rec[END] > outer[END]:
                raise ValueError(f"span {i} {rec[NAME]} is not inside its parent {outer[NAME]}")
            if rec[START] < last_end.get(parent, outer[START]):
                raise ValueError(f"span {i} {rec[NAME]} overlaps a sibling")
            last_end[parent] = rec[END]
            covered[parent] += rec[END] - rec[START]
        return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(spans)]

    def subtree(self, root):
        """Indices of the span at `root` and all spans below it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][PARENT] in inside:
                inside.add(i)
        return sorted(inside)

    def write(self, path):
        """All spans as gzipped JSON lines, in start order."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT],
                                     "request": rec[REQUEST], "attr": rec[ATTR]}) + "\n")
