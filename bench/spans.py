"""Span tracing of qstream's layer entry points, installed from outside.

``Tracer.install`` replaces each target function with a wrapper in every
qstream module that holds it (a function imported by name lives in several
module namespaces), and ``uninstall`` puts the originals back.  The library
itself is never edited.

A span is (name, parent, start ns, end ns, extra).  ``extra`` is a count a
target reports about its own result: witness nodes for ``qld``, queries for
the uniform sampler, segments for a generated stream.  Spans stay in flat
arrays in memory until ``save``; ``layer_totals`` reduces a slice of them to
per-name call counts and self time (duration minus time covered by child
spans).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

from qstream import adversaries, arena, blind, littlestone, model

from workloads import witness_nodes

# (span name, owner, attribute, count taken from the result)
TARGETS = (
    ("blind.qld", blind, "qld", lambda w: witness_nodes(w.witness["tree"])),
    ("blind.game_value", blind, "game_value", None),
    ("blind.replay", blind, "worst_case_mistakes", None),
    ("blind.bld", blind, "blind_learning_dimension", None),
    ("littlestone.soa_predict", littlestone, "soa_predict", None),
    ("arena.uniform", arena, "run_uniform_sampler", lambda r: len(r.query_events)),
    ("arena.adaptive", arena, "run_adaptive_sampler", None),
    ("arena.mistake_integral", arena, "mistake_integral", None),
    ("adversaries.branch_gen", adversaries, "gen_littlestone_branch_stream",
     lambda s: len(s.segments)),
    ("adversaries.selfrev_gen", adversaries, "gen_self_revealing_stream",
     lambda s: len(s.segments)),
    ("model.value_at", model.PiecewiseStream, "value_at", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = ["bench.op"] + [t[0] for t in TARGETS]
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, nid: int, fn, measure=None):
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            self.extra.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                self.extra[idx] = measure(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qstream" or n.startswith("qstream.")]
        for nid, (_, owner, attr, measure) in enumerate(TARGETS, start=1):
            original = getattr(owner, attr)
            wrapper = self.wrap(nid, original, measure)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _columns(self):
        # copies, so the arrays can keep growing afterwards
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        return name, parent, dur

    def layer_totals(self, lo: int, hi: int) -> dict[str, dict[str, int]]:
        """Per span name over spans [lo, hi): calls, self ns, extra, and
        ``under.<parent name>`` = number of calls whose parent has that name."""
        name, parent, dur = self._columns()
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        sl = slice(lo, hi)
        k = len(self.names)
        calls = np.bincount(name[sl], minlength=k)
        self_total = np.bincount(name[sl], weights=self_ns[sl], minlength=k)
        extra = np.bincount(name[sl], weights=np.array(self.extra, dtype=np.int64)[sl], minlength=k)
        out = {
            n: {"calls": int(calls[i]), "self_ns": int(self_total[i]), "extra": int(extra[i])}
            for i, n in enumerate(self.names)
        }
        p = parent[sl]
        pname = np.where(p >= 0, name[np.maximum(p, 0)], -1)
        for i, n in enumerate(self.names):
            mask = name[sl] == i
            for j in np.unique(pname[mask]):
                if j >= 0:
                    out[n]["under." + self.names[j]] = int(np.count_nonzero(pname[mask] == j))
        return out

    def save(self, path) -> None:
        """Write every span: names plus name/parent/start/end/extra columns."""
        name, parent, _ = self._columns()
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                names=np.array(self.names),
                name=name,
                parent=parent,
                start=np.array(self.start, dtype=np.int64),
                end=np.array(self.end, dtype=np.int64),
                extra=np.array(self.extra, dtype=np.int64),
            )
