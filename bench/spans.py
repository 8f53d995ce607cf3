"""Span recording around the public functions of nielsencalc.

The wrappers are installed from outside the package: each wrapped module
function is rebound in every ``nielsencalc`` module namespace that holds
it (the modules import each other's functions by name), and the
``Database`` lookups and ``ArgumentParser.parse_args`` are wrapped at
class level.  A span is ``[name, start_ns, end_ns, parent, op]`` where
``parent`` is the index of the enclosing span (-1 for none) and ``op``
the operation id (-1 for set-up).  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import sys
import time

# (module, function name) pairs wrapped by rebinding; the span name is
# "<module suffix>.<function>".
MODULE_TARGETS = (
    ("nielsencalc.cli", "build_parser"),
    ("nielsencalc.cli", "render"),
    ("nielsencalc.homotopy_db", "loads"),
    ("nielsencalc.homotopy_db", "validate"),
    ("nielsencalc.classifier", "classify_projective"),
    ("nielsencalc.classifier", "table_conditions"),
    ("nielsencalc.classifier", "classify_sphere_target"),
    ("nielsencalc.selfcoincidence", "self_verdict"),
    ("nielsencalc.fgab", "in_image"),
    ("nielsencalc.fgab", "kernel"),
    ("nielsencalc.fgab", "exact_at"),
    ("nielsencalc.fgab", "is_injective"),
)

LOOKUPS = ("get_group", "require_group", "get_hom", "require_hom",
           "get_group_entry")
QUERIES = ("classifier.classify_projective", "selfcoincidence.self_verdict",
           "classifier.classify_sphere_target")

# cap on recorded spans, so a fast workload's traced run stays small
MAX_SPANS = 200_000


class Tracer:
    """Records spans and counts; ``install`` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end,
                                stack[-1] if stack else -1, self.op]

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op, fn, *args):
        """Call ``fn(*args)`` as operation ``op`` under a root span 'op'."""
        self.op = op
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self.op = -1

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def full(self) -> bool:
        return len(self.spans) >= MAX_SPANS

    def merge(self, spans, counts, op):
        """Append spans recorded in a child process as operation ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1, op])
        for key, n in counts.items():
            self.count(key, n)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target that the loaded package defines."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nielsencalc"
                                         or name.startswith("nielsencalc."))]
        for modname, attr in MODULE_TARGETS:
            home = sys.modules.get(modname)
            original = getattr(home, attr, None) if home else None
            if original is None:
                continue
            on_call = self._snf_probe if attr == "in_image" else None
            wrapper = self._wrap(f"{modname.split('.', 1)[1]}.{attr}",
                                 original, on_call)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        db_cls = getattr(sys.modules.get("nielsencalc.homotopy_db"),
                         "Database", None)
        for attr in LOOKUPS:
            original = getattr(db_cls, attr, None)
            if original is not None:
                setattr(db_cls, attr,
                        self._wrap(f"homotopy_db.{attr}", original))
                self._undo.append((db_cls, attr, original))
        argparse = sys.modules.get("argparse")
        if argparse is not None and "nielsencalc.cli" in sys.modules:
            original = argparse.ArgumentParser.parse_args
            argparse.ArgumentParser.parse_args = self._wrap("cli.parse_args",
                                                            original)
            self._undo.append((argparse.ArgumentParser, "parse_args",
                               original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _snf_probe(self, args):
        # a hit means the homomorphism already held the SNF of its
        # augmented matrix, so in_image only solves against it
        self.count("fgab.in_image.calls")
        if args and getattr(args[0], "_snf_cache", None) is not None:
            self.count("fgab.in_image.cache_hits")


def installed() -> bool:
    """True when any nielsencalc function in this process is wrapped."""
    for modname, attr in MODULE_TARGETS:
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is not None and hasattr(fn, "__wrapped__"):
            return True
    return False


# ---------------------------------------------------------------------------
# turning spans into per-layer numbers

def layer_stats(spans):
    """Per span name: calls, total and self nanoseconds, plus query lookups.

    Self time is a span's duration minus that of its direct children.
    Lookups per query count the outermost ``Database`` lookups made
    inside a query span.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, list[int]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[i]
    lookup_names = {f"homotopy_db.{name}" for name in LOOKUPS}
    queries = sum(1 for name, _, _, parent, _ in spans
                  if name in QUERIES and not _under(spans, parent, QUERIES))
    lookups = lookup_ns = 0
    for name, start, end, parent, _ in spans:
        if (name in lookup_names and not _under(spans, parent, lookup_names)
                and _under(spans, parent, QUERIES)):
            lookups += 1
            lookup_ns += end - start
    return stats, queries, lookups, lookup_ns


def _under(spans, index, names) -> bool:
    while index >= 0:
        if spans[index][0] in names:
            return True
        index = spans[index][3]
    return False


def parse_ns(spans):
    """Mean (loads duration - its validate children) over loads spans."""
    validate_ns: dict[int, int] = {}
    for name, start, end, parent, _ in spans:
        if name == "homotopy_db.validate" and parent >= 0:
            validate_ns[parent] = validate_ns.get(parent, 0) + end - start
    parts = [end - start - validate_ns.get(i, 0)
             for i, (name, start, end, _, _) in enumerate(spans)
             if name == "homotopy_db.loads"]
    return sum(parts) / len(parts) if parts else 0.0
