"""Layer tracing from outside the package.

The tracer replaces public functions of hicat's modules with timing
wrappers.  Where a module imported a function by name, the binding in
that module is replaced too, so every caller goes through the wrapper;
nothing inside ``src/hicat`` is edited.  Each wrapper belongs to a
group (one per per-layer metric family); a call into a group that is
already open, such as ``make_model`` calling ``derived_model``, is
passed straight through, so it is counted once.  A group's self time
is its span time minus the time of the spans opened inside it.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter


def _add_len(field, attr=None):
    def count(stat, result):
        value = result if attr is None else getattr(result, attr)
        stat.extra[field] = stat.extra.get(field, 0) + len(value)
    return count


def _add_attr(field, attr):
    def count(stat, result):
        stat.extra[field] = stat.extra.get(field, 0) + getattr(result, attr)
    return count


def _add_counters(*fields):
    def count(stat, result):
        for field in fields:
            stat.extra[field] = stat.extra.get(field, 0) + result.counters.get(field, 0)
    return count


def _add_text_bytes(stat, result):
    if isinstance(result, str):
        stat.extra["bytes"] = stat.extra.get("bytes", 0) + len(result.encode("utf-8"))


_FACTORIES = ("module_model", "derived_model", "cluster_model",
              "almost_positive_model", "relative_f_model", "make_model")

#: (group, defining module, attribute or Class.method, rebinding scope, result counter).
#: A scope of None rebinds in every hicat module; otherwise only in the one named.
TARGETS = (
    ("tuples.predicate", "hicat.tuples", "intertwines", "hicat.models", None),
    ("tuples.predicate", "hicat.tuples", "normalize_cyclic", "hicat.models", None),
    *(("models.build", "hicat.models", f, None, None) for f in _FACTORIES),
    ("models.hom_dim", "hicat.models", "CategoryModel.hom_dim", None, None),
    ("models.ext_dim", "hicat.models", "CategoryModel.ext_dim", None, None),
    ("models.compose", "hicat.models", "CategoryModel.compose_scalar", None, None),
    ("exangles.realize", "hicat.exangles", "realize", None, None),
    ("exangles.complex", "hicat.exangles", "is_complex", None, None),
    ("exangles.exactness", "hicat.exangles", "hom_exactness_report", None,
     _add_attr("positions", "positions_checked")),
    ("quotients.quotient", "hicat.quotients", "quotient", None, _add_len("killed", "killed")),
    ("quotients.factors_through", "hicat.quotients", "factors_through", None, None),
    ("rigidity.enumerate", "hicat.rigidity", "maximal_rigid", None, _add_len("sets")),
    ("rigidity.enumerate", "hicat.rigidity", "tilting_sets", None, _add_len("sets")),
    ("rigidity.scan", "hicat.rigidity", "correspondence_check", None,
     _add_counters("mutations_checked", "exchange_exangles")),
    ("rigidity.mutate", "hicat.rigidity", "mutate", None, None),
    ("emit.render", "hicat.emit", "emit", None, _add_text_bytes),
    ("emit.render", "hicat.emit", "hom_table", None, None),
    ("emit.render", "hicat.emit", "ext_table", None, None),
    ("emit.render", "hicat.emit", "exangle_to_dict", None, None),
    ("emit.render", "hicat.emit", "quotient_to_dict", None, None),
    ("cli", "hicat.cli", "main", None, None),
)

#: Groups too fine-grained to keep a span per call.
_NO_SPANS = frozenset({"tuples.predicate", "models.hom_dim", "models.ext_dim",
                       "models.compose", "quotients.factors_through"})
MAX_SPANS = 200_000


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.extra: dict[str, int] = {}

    def snapshot(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "incl_s": self.incl_s, **self.extra}


class Tracer:
    """Wraps hicat's public functions; off until ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []   # open spans: [child seconds, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    def stat(self, group: str) -> Stat:
        return self.stats.setdefault(group, Stat())

    def _open(self, stat: Stat) -> tuple[list, float]:
        stat.depth += 1
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame, perf_counter()

    def _close(self, group: str, stat: Stat, frame: list, t0: float) -> None:
        t1 = perf_counter()
        dt = t1 - t0
        self._stack.pop()
        stat.depth -= 1
        stat.calls += 1
        stat.incl_s += dt
        stat.self_s += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt
        if group not in _NO_SPANS and len(self.spans) < MAX_SPANS:
            self.spans.append((frame[1], frame[2], group, t0, t1))

    def wrap(self, group: str, fn, count=None):
        stat = self.stat(group)

        def wrapper(*args, **kwargs):
            if not self.enabled or stat.depth:
                return fn(*args, **kwargs)
            frame, t0 = self._open(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(group, stat, frame, t0)
            if count is not None:
                count(stat, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    @contextmanager
    def span(self, group: str):
        """A span opened by the benchmark itself, around a call into hicat."""
        if not self.enabled:
            yield
            return
        stat = self.stat(group)
        frame, t0 = self._open(stat)
        try:
            yield
        finally:
            self._close(group, stat, frame, t0)

    def install(self) -> list[str]:
        """Rebind every target; returns the targets that do not exist."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hicat" or name.startswith("hicat."))]
        missing = []
        for group, owner_name, attr, scope, count in TARGETS:
            self.stat(group)
            owner = sys.modules.get(owner_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = meth
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                missing.append(f"{owner_name}.{attr}")
                continue
            wrapped = self.wrap(group, orig, count)
            if cls_name:
                self._rebind(owner, attr, orig, wrapped)
                continue
            for module in modules:
                if scope is not None and module.__name__ != scope:
                    continue
                for name, value in list(vars(module).items()):
                    if value is orig:
                        self._rebind(module, name, orig, wrapped)
        return missing

    def _rebind(self, holder, name, orig, wrapped) -> None:
        setattr(holder, name, wrapped)
        self._undo.append((holder, name, orig))

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._undo):
            setattr(holder, name, orig)
        self._undo.clear()

    def snapshot(self) -> dict[str, dict]:
        return {group: stat.snapshot() for group, stat in self.stats.items()}


def diff(after: dict, before: dict) -> dict[str, dict]:
    """Per-group difference of two snapshots."""
    out = {}
    for group, values in after.items():
        prev = before.get(group, {})
        out[group] = {k: v - prev.get(k, 0) for k, v in values.items()}
    return out
