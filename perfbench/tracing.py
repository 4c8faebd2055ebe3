"""Spans around the public entry points of each boolrep module.

The wrappers are installed from outside the library for one traced pass and
removed after it, so untraced passes run the library untouched.  Each span
records its name, start, end, the span that called it and the id of the job
it served.  A span's self time is its duration minus the time of the spans
it called.

`SbMatrix.columns_independent` runs hundreds of thousands of times per pass,
so its spans are summed per (job, calling span) instead of stored one by one.
The matroid rank oracle runs about 200,000 times per pipeline pass; a
timing wrapper there would swamp every other span, so it is only counted,
in a pass of its own (`install_counters`).
"""

from __future__ import annotations

import sys
from functools import cached_property
from time import perf_counter_ns


class Tracer:
    """Open spans on a stack; closed spans and per-name totals in memory."""

    def __init__(self):
        self.job = None
        self._stack = []  # open frames: [span id, name, start ns, child ns]
        self._next_id = 1
        self.spans = []  # (span id, parent id, job, name, start ns, end ns)
        self.hot = {}  # (job, parent id, name) -> [count, total ns]
        self.totals = {}  # name -> [count, total ns, self ns]
        self.counters = {}  # name -> number

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _open(self, name: str):
        frame = [self._next_id, name, perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, hot: bool) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        parent_id = 0
        if parent is not None:
            parent[3] += duration
            parent_id = parent[0]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if hot:
            key = (self.job, parent_id, name)
            entry = self.hot.get(key)
            if entry is None:
                entry = self.hot[key] = [0, 0]
            entry[0] += 1
            entry[1] += duration
        else:
            self.spans.append((span_id, parent_id, self.job, name, start, end))

    def wrap(self, name: str, fn, observe=None, hot=False):
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, hot)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, observe=None):
        """Time each step of the generator `fn` returns, where its work happens."""

        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)

            def stepping():
                while True:
                    frame = self._open(name)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, False)
                    if observe is not None:
                        observe(self, args, item)
                    yield item

            return stepping()

        return traced

    def records(self):
        """Every span as a JSON-ready dict, summed ones last."""
        for span_id, parent, job, name, start, end in self.spans:
            yield {"id": span_id, "parent": parent, "job": job, "name": name,
                   "start_ns": start, "end_ns": end}
        for (job, parent, name), (count, total) in self.hot.items():
            yield {"parent": parent, "job": job, "name": name, "count": count,
                   "total_ns": total}


def _count(counter: str, amount=lambda args, result: 1):
    return lambda tracer, args, result: tracer.add(counter, amount(args, result))


def _verified(tracer, args, report):
    tracer.add("extraction.subsets_checked", report.checked_count)
    tracer.add("extraction.mismatches", len(report.mismatches))


def _reduced(tracer, args, rep):
    tracer.add("extraction.rows_in", args[0].row_count)
    tracer.add("extraction.rows_out", rep.row_count)


# (module, function, span name, observer, generator)
FUNCTIONS = [
    ("boolrep.matroid", "matroid_from_json", "matroid.load", None, False),
    ("boolrep.matroid", "hereditary_from_matrix", "matroid.hereditary", None, False),
    ("boolrep.extraction", "extract_representation", "extraction.extract", None, False),
    ("boolrep.extraction", "paper_reduce", "extraction.paper", _reduced, False),
    ("boolrep.extraction", "verified_reduce", "extraction.verified", _reduced, False),
    ("boolrep.extraction", "verify_representation", "extraction.verify", _verified, False),
    ("boolrep.partitions", "maximal_chains", "partitions.chains",
     _count("partitions.chains"), True),
    ("boolrep.partitions", "partition_of_chain", "partitions.chains", None, False),
    ("boolrep.cli", "main", "cli.main", None, False),
]

# (module, class, attribute, span name, observer, hot)
METHODS = [
    ("boolrep.matroid", "Matroid", "flat_masks", "matroid.flats", None, False),
    ("boolrep.lattice", "FlatLattice", "from_matroid", "lattice.build",
     _count("lattice.flats", lambda args, lattice: lattice.size), False),
    ("boolrep.sbool", "SbMatrix", "columns_independent", "sbool.colind",
     _count("sbool.colind_indep", lambda args, ok: int(ok)), True),
    ("boolrep.sbool", "SbMatrix", "rank", "sbool.rank", None, False),
    ("boolrep.sbool", "SbMatrix", "permanent", "sbool.permanent", None, False),
    ("boolrep.sbool", "SbMatrix", "is_nonsingular", "sbool.eliminate", None, False),
    ("boolrep.sbool", "SbMatrix", "triangular_form", "sbool.eliminate", None, False),
    ("boolrep.sbool", "SbMatrix", "witness", "sbool.witness", None, False),
    ("boolrep.sbool", "SbMatrix", "from_csv", "sbool.csv", None, False),
    ("boolrep.sbool", "SbMatrix", "to_csv", "sbool.csv", None, False),
]


def _rebind(original, wrapper_of):
    """The same kind of class attribute as `original`, around a new function."""
    if isinstance(original, classmethod):
        return classmethod(wrapper_of(original.__func__))
    if isinstance(original, cached_property):
        prop = cached_property(wrapper_of(original.func))
        prop.attrname = original.attrname
        return prop
    return wrapper_of(original)


def _replace_function(module: str, name: str, wrapped, undo: list) -> None:
    """Swap a function in its own module and wherever boolrep imported it."""
    original = getattr(sys.modules[module], name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "boolrep" or mod_name.startswith("boolrep."):
            if getattr(mod, name, None) is original:
                undo.append((mod, name, original))
                setattr(mod, name, wrapped)


def install(tracer: Tracer):
    """Wrap every traced entry point; returns the list `uninstall` takes."""
    undo = []
    for module, name, span, observe, generator in FUNCTIONS:
        fn = getattr(sys.modules[module], name)
        wrap = tracer.wrap_generator if generator else tracer.wrap
        _replace_function(module, name, wrap(span, fn, observe), undo)
    for module, cls_name, attr, span, observe, hot in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _rebind(original, lambda f: tracer.wrap(span, f, observe, hot)))
    return undo


def install_counters(counts: dict):
    """Count calls to the matroid rank and closure oracles."""
    from boolrep.matroid import Matroid

    undo = []
    for attr, key in (("rank_of_mask", "matroid.rank_calls"),
                      ("closure_mask", "matroid.closure_calls")):
        original = Matroid.__dict__[attr]
        counts[key] = 0

        def counting(*args, _fn=original, _key=key):
            counts[_key] += 1
            return _fn(*args)

        undo.append((Matroid, attr, original))
        setattr(Matroid, attr, counting)
    return undo


def uninstall(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
