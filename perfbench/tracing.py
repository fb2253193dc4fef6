"""Outside-in tracing of grakit's layers.

A :class:`Tracer` wraps named public functions of each grakit module and
records, per function, the number of calls, the inclusive time and the self
time (inclusive time minus the time spent in wrapped callees), plus work
counters read off arguments and results.  No grakit code changes: the
wrappers are installed in every grakit module namespace that binds the
function, because grakit modules import each other's functions by name.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

# layer -> (metric name, attribute path in that module)
TARGETS = {
    "graphs": ("induced", "reconnected_complement", "component_masks", "connected_mask"),
    "tubings": ("enumerate_nested", "maximal_nested", "nested_tree", "node_graph",
                "node_insertions", "quadratic_divisor"),
    "polycomb": ("f_vector", "h_poly_from_descents"),
    "groebner": ("cobar_complex", "boundary", "CobarComplex.differential_matrix",
                 "is_normal", "weight2_leading_tubes", "normal_monomials",
                 "reduction", "induction"),
    "exactla": ("rank", "ChainComplex.__init__", "homology_dims"),
    "engine": ("gravity_dims", "gerst_derivation_matrix", "check_gravity_relations",
               "gravity_relations", "hypercom_relations", "relation_pairing",
               "check_axioms"),
    "cli": ("main",),
}

COUNTERS = (
    "tubings.enumerate_nested.sets",
    "tubings.maximal_nested.sets",
    "groebner.boundary.terms",
    "groebner.differential_matrix.cells",
    "groebner.differential_matrix.nnz",
    "exactla.rank.cells",
    "exactla.rank.nnz",
)

# hit ratio name -> (module, lru_cache functions)
CACHES = {
    "groebner.boundary.hit_ratio": ("groebner", ("boundary",)),
    "tubings.nested_tree.hit_ratio": ("tubings", ("nested_tree",)),
    "groebner.weight2_leading_tubes.hit_ratio": ("groebner", ("weight2_leading_tubes",)),
    "graphs.cache.hit_ratio": ("graphs", ("_bit_index", "_adjacency", "_edge_set")),
}

_DONE = object()

_MODULES = ("grakit", "grakit.graphs", "grakit.tubings", "grakit.polycomb",
            "grakit.groebner", "grakit.exactla", "grakit.engine", "grakit.cli")


def metric_name(layer: str, attr: str) -> str:
    """``CobarComplex.differential_matrix`` -> ``groebner.differential_matrix``;
    a class's ``__init__`` is named after the class."""
    parts = attr.split(".")
    return f"{layer}.{parts[0] if parts[-1] == '__init__' else parts[-1]}"


def function_names() -> list[str]:
    return [metric_name(layer, attr) for layer, attrs in TARGETS.items() for attr in attrs]


def _matrix_size(m) -> tuple[int, int]:
    return m.rows * m.cols, sum(1 for row in m.entries for x in row if x)


class Tracer:
    """Installs timing wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in function_names()}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.top_level_s = 0.0
        self._stack: list[float] = []  # per active wrapped call: time in wrapped callees
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- wrappers ----------------------------------------------------------

    def _finish(self, stat: list, elapsed: float, child: float, outer: float) -> None:
        stat[1] += elapsed
        stat[2] += elapsed - child
        if self._stack:
            self._stack[-1] += outer
        else:
            self.top_level_s += outer

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "groebner.boundary":
            c["groebner.boundary.terms"] += len(result)
        elif name == "tubings.maximal_nested":
            c["tubings.maximal_nested.sets"] += len(result)
        elif name == "groebner.differential_matrix":
            cells, nnz = _matrix_size(result)
            c["groebner.differential_matrix.cells"] += cells
            c["groebner.differential_matrix.nnz"] += nnz
        elif name == "exactla.rank":
            cells, nnz = _matrix_size(args[0])
            c["exactla.rank.cells"] += cells
            c["exactla.rank.nnz"] += nnz

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        counted = name in ("groebner.boundary", "tubings.maximal_nested",
                           "groebner.differential_matrix", "exactla.rank")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                self._finish(stat, t1 - t0, stack.pop(), t1 - t0)
                raise
            t1 = clock()
            child = stack.pop()
            if counted:
                self._count(name, args, result)
            # the parent is charged for the counting too, so its self time excludes it
            self._finish(stat, t1 - t0, child, clock() - t0)
            if isinstance(result, types.GeneratorType):
                return self._consume(stat, name, result)
            return result

        return wrapper

    def _consume(self, stat: list, name: str, gen):
        """Re-yield a generator, timing each resumption as part of ``name``."""
        stack = self._stack
        clock = time.perf_counter
        sets = name + ".sets"
        while True:
            stack.append(0.0)
            t0 = clock()
            try:
                item = next(gen, _DONE)
            finally:
                t1 = clock()
                self._finish(stat, t1 - t0, stack.pop(), t1 - t0)
            if item is _DONE:
                return
            if sets in self.counters:
                self.counters[sets] += 1
            yield item

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        for layer, attrs in TARGETS.items():
            home = importlib.import_module(f"grakit.{layer}")
            for attr in attrs:
                name = metric_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(home, attr)
                self._originals[name] = original
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def hit_ratios(self) -> dict[str, float]:
        """Hit ratios read from ``cache_info()`` of the unwrapped functions."""
        out = {}
        for metric, (layer, names) in CACHES.items():
            module = importlib.import_module(f"grakit.{layer}")
            hits = misses = 0
            for fn_name in names:
                fn = self._originals.get(f"{layer}.{fn_name}") or getattr(module, fn_name)
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        out.update(self.hit_ratios())
        return out
