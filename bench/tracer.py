"""Out-of-program tracer for one aslkit process.

`Tracer.install()` wraps the public functions of each layer module (see
LAYERS) with a span recorder and rebinds every copy of a wrapped function
that another `aslkit.*` module imported with `from .x import f`, so calls
made through those copies are traced too. A few hot methods get counters
instead of spans. Nothing under `src/aslkit` changes; a span costs a few
microseconds, which is why value-level callbacks stay unwrapped.

A span has a name, a start, an end and a parent. Spans are kept in memory
(up to SPAN_KEEP of them) and the per-name totals are folded on the fly:
a span's self time is its duration minus the time covered by its child
spans.
"""

import functools
import itertools
import sys
import time
import weakref

# layer modules whose public functions get spans; families, matgroups and
# errors get none, so their cost lands in the caller's self time
LAYERS = ("core", "normal", "series", "oracle", "wreath", "fpmod",
          "specparse", "catalog", "verify", "cli")

# value-level callbacks handed to Group as vmul/vinv/labeler: a span per
# product would cost more than the product itself
NO_SPAN = {"core": {"perm_mul", "perm_inv", "cycle_label"}}

SPAN_KEEP = 100000


class _Memo(dict):
    """Product memo that reports its size when its group is freed."""

    __slots__ = ("__weakref__",)
    dead_entries = 0

    def __del__(self):
        _Memo.dead_entries += len(self)


class _FirstSeen:
    """Identity set over weak references: True the first time an object
    is offered while it is alive."""

    def __init__(self):
        self._objs = weakref.WeakValueDictionary()

    def __call__(self, obj):
        key = id(obj)
        if self._objs.get(key) is obj:
            return False
        self._objs[key] = obj
        return True


class Tracer:
    def __init__(self):
        self.spans = []         # (name, start, end, parent span index)
        self.dropped = 0
        self._stack = []        # [span index, name, start, child s, parent]
        self.self_s = {}
        self.calls = {}
        self.counts = dict.fromkeys(
            ("core.closure.adds", "core.closure.adopted",
             "core.groups_built", "core.as_group.calls", "normal.joins",
             "normal.joins_new", "normal.lattice_members",
             "series.d_steps"), 0)
        self._mul_tick = itertools.count()
        self._memos = weakref.WeakValueDictionary()
        self._lattice_frames = []   # member sets known to each lattice call
        self._new_lattice = _FirstSeen()
        self._new_series = _FirstSeen()
        self.t0 = time.perf_counter()

    # -- spans ----------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans) + self.dropped
        self._stack.append([idx, name, time.perf_counter(), 0.0, parent])

    def _exit(self):
        idx, name, start, child, parent = self._stack.pop()
        end = time.perf_counter()
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < SPAN_KEEP:
            self.spans.append((name, start - self.t0, end - self.t0, parent))
        else:
            self.dropped += 1

    def _span(self, name, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap the layers of the already imported aslkit package."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("aslkit.") and mod is not None}
        originals = {}
        for layer in LAYERS:
            mod = mods["aslkit." + layer]
            skip = NO_SPAN.get(layer, set())
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip \
                        or isinstance(val, type) or not callable(val) \
                        or getattr(val, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._span(f"{layer}.{attr}", val)
                originals[id(val)] = (val, self._hook(layer, attr, wrapped))
        # rebind the defining module's name and every imported copy
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        self._instrument_classes(mods["aslkit.core"])
        return self

    def _hook(self, layer, attr, traced):
        """Counters measured at a wrapped function's boundary."""
        counts = self.counts
        if (layer, attr) == ("normal", "all_normal_subgroups"):
            frames = self._lattice_frames
            new_lattice = self._new_lattice

            @functools.wraps(traced)
            def lattice(*args, **kwargs):
                frames.append({frozenset([0])})
                try:
                    lat = traced(*args, **kwargs)
                finally:
                    frames.pop()
                if new_lattice(lat):
                    counts["normal.lattice_members"] += len(lat)
                return lat
            return lattice
        if (layer, attr) == ("normal", "class_closures"):
            frames = self._lattice_frames

            @functools.wraps(traced)
            def closures(*args, **kwargs):
                out = traced(*args, **kwargs)
                if frames:
                    frames[-1].update(s.member_set for s in out)
                return out
            return closures
        if (layer, attr) == ("series", "generalized_derived_series"):
            new_series = self._new_series

            @functools.wraps(traced)
            def series(*args, **kwargs):
                rep = traced(*args, **kwargs)
                if new_series(rep):
                    counts["series.d_steps"] += len(rep.terms) - 1
                return rep
            return series
        return traced

    def _instrument_classes(self, core):
        counts = self.counts
        tick = self._mul_tick.__next__
        memos = self._memos
        frames = self._lattice_frames

        Group = core.Group
        mul, init = Group.mul, Group.__init__

        def counted_mul(self, i, j):
            tick()
            return mul(self, i, j)

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            counts["core.groups_built"] += 1
            memo = _Memo(self._mul_cache)
            self._mul_cache = memo
            memos[id(memo)] = memo

        Group.mul = counted_mul
        Group.__init__ = counted_init

        add = core.ClosureBuilder.add

        def counted_add(self, g):
            grew = add(self, g)
            counts["core.closure.adds"] += 1
            if grew:
                counts["core.closure.adopted"] += 1
            return grew

        core.ClosureBuilder.add = counted_add

        Subgroup = core.Subgroup
        join, as_group = Subgroup.join, Subgroup.as_group

        def counted_join(self, other):
            out = join(self, other)
            counts["normal.joins"] += 1
            if frames and out.member_set not in frames[-1]:
                frames[-1].add(out.member_set)
                counts["normal.joins_new"] += 1
            return out

        def counted_as_group(self):
            counts["core.as_group.calls"] += 1
            return as_group(self)

        Subgroup.join = counted_join
        Subgroup.as_group = counted_as_group

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per-name span totals and the counters, as plain JSON data."""
        counts = dict(self.counts)
        counts["core.mul.calls"] = next(self._mul_tick)
        counts["core.mul.memo_entries"] = _Memo.dead_entries + sum(
            len(m) for m in self._memos.values())
        return {"self_s": self.self_s, "calls": self.calls,
                "counts": counts, "spans_kept": len(self.spans),
                "spans_dropped": self.dropped}
