"""Span tracing from outside the program, at spekcat's module boundaries.

Each public function of a layer is replaced by a timing wrapper at every
name a caller looks it up by (``spekcat.diagrams.zone_decompose`` and
``spekcat.signatures.zone_decompose`` alike); methods are wrapped on their
class.  A wrapper records one span: name, start, end, parent span and op
id.  Calls inside one module to private helpers are not wrapped, so their
cost shows in the caller's self time.
"""

import functools
import importlib
import sys
import time

# (module, function, counters): each counter turns a call's result into a
# number added to ``<module>.<function>.<counter>``.  A call that raises
# adds 1 to ``.failed`` instead; ``failed`` is reported where it is listed.
FUNCTIONS = (
    ("diagrams", "parse", {}),
    ("diagrams", "as_state", {}),
    ("diagrams", "evaluate", {"failed": lambda r: 0,
                              "rows_out": lambda r: len(r.pairs)}),
    ("diagrams", "zone_decompose", {"zones": lambda zd: len(zd.zones),
                                    "links": lambda zd: len(zd.links)}),
    ("diagrams", "sigma_normalize", {}),
    ("permutations", "sigma_decompose", {}),
    ("generators", "resolve", {}),
    ("signatures", "state_form",
     {"signatures": lambda res: len(res[0].signatures),
      "solutions": lambda res: sum(c for _, c in res[0].signatures)}),
    ("gf2", "rref", {}),
    ("verification", "enumerate_states",
     {"states": lambda st: sum(len(v) for v in st.values())}),
    ("verification", "enumerate_closure",
     {"relations": lambda rep: sum(len(h) for h in rep.hom.values())}),
    ("verification", "check_kbp", {"failed": lambda v: int(not v.ok)}),
    ("verification", "check_map_state_duality", {}),
    ("verification", "check_basis_structure", {}),
)
# (module, class, method, counters), wrapped on the class
METHODS = (
    ("relations", "Relation", "then", {}),
    ("relations", "Relation", "tensor", {}),
    ("relations", "Relation", "converse", {}),
    ("relations", "Relation", "marginal", {}),
    ("signatures", "StateForm", "expand",
     {"rows_out": lambda r: len(r.pairs)}),
)


def metric_names():
    """Every per-layer stat a traced pass reports, as
    ``<module>.<function>.<stat>``."""
    names = []
    for mod, fn, counters in FUNCTIONS + tuple(
            (m, f, c) for m, _, f, c in METHODS):
        names += ["%s.%s.%s" % (mod, fn, stat)
                  for stat in ("calls", "self_s") + tuple(counters)]
    return names


class Tracer:
    """Spans and counts of the wrapped calls, kept in memory.

    A span is ``(name, start, end, parent, op)``; ``parent`` is the index
    of the enclosing span or -1, ``op`` the id of the benchmark op that was
    running.  A call that raises is recorded and counted as ``failed``.
    While ``active`` is false the wrappers record nothing.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = 0
        self.active = True
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
                if not ok:
                    key = name + ".failed"
                    counts[key] = counts.get(key, 0) + 1
            for key, counter in counters.items():
                key = name + "." + key
                counts[key] = counts.get(key, 0) + counter(result)
            return result

        return traced

    def install(self):
        """Patch every target at each name it is looked up by."""
        for mod_name, _, _ in FUNCTIONS:
            importlib.import_module("spekcat." + mod_name)
        modules = {name.partition(".")[2]: mod
                   for name, mod in list(sys.modules.items())
                   if name.partition(".")[0] == "spekcat" and mod is not None}
        for mod_name, fn_name, counters in FUNCTIONS:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(mod_name + "." + fn_name, original, counters)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, counters in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = vars(cls)[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth,
                    self._wrap(mod_name + "." + meth, original, counters))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[idx], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_stats(tracer):
    """Per-layer ``calls`` and ``self_s``, plus the counters, by name."""
    stats = dict(tracer.counts)
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        stats[name + ".calls"] = stats.get(name + ".calls", 0) + 1
        stats[name + ".self_s"] = stats.get(name + ".self_s", 0.0) + own
    stats["trace.spans"] = len(tracer.spans)
    return stats


def write_spans(tracer, path):
    """Write the spans, one tab-separated line each, with their self time."""
    with open(path, "w") as fh:
        fh.write("op\tname\tstart\tend\tparent\tself_s\n")
        for (name, start, end, parent, op), own in zip(
                tracer.spans, self_times(tracer.spans)):
            fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%.9f\n"
                     % (op, name, start, end, parent, own))
