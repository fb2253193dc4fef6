"""Batch command-line front end.

A command ``_cmd_x(g, args)`` gets the host graph (family shorthand like
"path:3", inline JSON, or a path to a JSON file) and returns ``(report,
csv_parts)``: its report without the graph, and the rows and header of its
csv form or None.  ``main`` loads the host, puts ``"graph"`` first, prints
the report and exits 2 if its ``"ok"`` is false; ``sweep`` has no host, and
``tree`` prints DOT and returns no report.  Reports are written key by key
through one JSON encoder.  The nested-set listings (``nested``, ``maximal``)
are streamed in the json and the text form alike: their count comes first,
from the face recursion, and each set is written as the walk yields it, so
no listing is ever held whole; a walk that yields a different number of sets
fails the identity check.  Every refusal comes before the first byte.  Exit
codes: 0 success, 1 input error, 2 a mathematical identity check failed.
The vertex cap defaults to the GRAKIT_CAP environment variable when set;
``grav-dims`` ignores it.  ``sweep`` computes its rows one after another in
the calling process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from functools import lru_cache

from . import engine, groebner, polycomb, tubings
from .graphs import Graph, GraphError, family, parse_graph
from .tubings import DEFAULT_CAP, NestedSet, _check_host, _tube_table, nested_set_from_json, nested_tree

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IDENTITY = 2


# reports are never cyclic; the cycle check costs a quarter of a big report's time
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


class IdentityCheckFailed(Exception):
    """Two independent computations behind a report disagree."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _default_cap() -> int:
    env = os.environ.get("GRAKIT_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"GRAKIT_CAP must be an integer, got {env!r}") from None


def _read_json(spec: str, shorthand: bool = False):
    """The JSON value of ``spec``: inline JSON, or the JSON in the file it
    names.  With ``shorthand``, other text is returned as it is, for the
    caller to parse."""
    text = spec.strip()
    try:
        if text.startswith("{"):
            return json.loads(text)
        if os.path.exists(text):
            with open(text) as fh:
                return json.load(fh)
        return text if shorthand else json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _load_graph(spec: str) -> Graph:
    return parse_graph(_read_json(spec, shorthand=True))


def _load_nested(g: Graph, spec: str, cap: int) -> NestedSet:
    # validating a nested set builds the host's tube table over all 2^n subsets
    _check_host(g, cap)
    return nested_set_from_json(g, _read_json(spec))


def _write_json(report: dict, out) -> None:
    """Write a report as one line of compact JSON, key by key.  A value that
    is an iterator is a streamed list: it yields the JSON text of each item,
    and each is written as it comes; the rest is written in one piece."""
    text = "{"
    for i, (key, value) in enumerate(report.items()):
        text += ("," if i else "") + _ENCODER.encode(key) + ":"
        if isinstance(value, Iterator):
            out.write(text + "[")
            out.writelines(("," if j else "") + item for j, item in enumerate(value))
            text = "]"
        else:
            text += _ENCODER.encode(value)
    out.write(text + "}\n")


def _emit(report: dict, fmt: str, csv_parts) -> None:
    """Print a report; ``dot`` stands for json outside the tree command.
    text prints each value as its JSON text reads back, so tuples show as the
    json form's lists, and writes a streamed list item by item, as json does."""
    if fmt == "csv":
        if csv_parts is None:
            raise GraphError("this command has no csv form")
        rows, header = csv_parts
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    elif fmt == "text":
        for key, value in report.items():
            if isinstance(value, Iterator):
                items = (repr(json.loads(item)) for item in value)
                sys.stdout.write(f"{key}: [")
                sys.stdout.writelines((", " if j else "") + item for j, item in enumerate(items))
                print("]")
            else:
                print(f"{key}: {json.loads(_ENCODER.encode(value))}")
    else:
        _write_json(report, sys.stdout)


def _listing(g: Graph, sets: Iterable[NestedSet], count: int) -> Iterator[str]:
    """The JSON text of each nested set as ``sets`` yields it, joined from
    each tube's text, encoded once per host.  Raises IdentityCheckFailed
    unless exactly ``count`` sets came, the count the report states."""
    text = {m: _ENCODER.encode(t) for m, t in _tube_table(g)[0].items()}
    written = 0
    for ns in sets:
        yield "[" + ",".join(map(text.__getitem__, ns.masks)) + "]"
        written += 1
    if written != count:
        raise IdentityCheckFailed(f"the walk gave {written} nested sets, "
                                  f"the face recursion {count}")


# ---------------------------------------------------------------------------
# Command implementations, in the contract the module docstring states.
# ---------------------------------------------------------------------------

def _cmd_tubes(g, args):
    ts = tubings.tubes(g, cap=args.cap)
    report = {"tubes": [list(t) for t in ts]}
    return report, ([[" ".join(map(str, t))] for t in ts], ["tube"])


def _cmd_nested(g, args):
    # the empty family is the one nested set not counted without augmentation
    count = sum(polycomb.f_vector(g, cap=args.cap)) - (not args.augmented)
    sets = tubings.enumerate_nested(g, args.augmented, cap=args.cap)
    report = {
        "augmented": args.augmented,
        "count": count,
        "nested_sets": _listing(g, sets, count),
    }
    return report, None


def _cmd_maximal(g, args):
    count = polycomb.f_vector(g, cap=args.cap)[0]
    sets = tubings.maximal_nested(g, cap=args.cap)
    report = {"count": count, "nested_sets": _listing(g, sets, count)}
    return report, None


def _cmd_tree(g, args):
    if args.format != "dot":
        raise GraphError("tree has only a dot form")
    ns = _load_nested(g, args.tau, args.cap)
    dot = nested_tree(ns).to_dot()
    print(dot)
    return None, None


def _cmd_fvector(g, args):
    f = polycomb.f_vector(g, cap=args.cap)
    return {"f": f}, ([[i, x] for i, x in enumerate(f)], ["dim", "count"])


def _cmd_hpoly(g, args):
    h = polycomb.h_poly_from_f(polycomb.f_vector(g, cap=args.cap))
    return {"h": h}, ([[i, x] for i, x in enumerate(h)], ["degree", "coefficient"])


def _cmd_betti(g, args):
    b = polycomb.betti(g, cap=args.cap)
    return {"betti": b}, ([[2 * i, x] for i, x in enumerate(b)], ["degree", "dim"])


def _cmd_grav_dims(g, args):
    dims = engine.gravity_dims(g)
    expected = 2 ** (g.n - 1)
    ok = dims.total == expected
    report = {
        "by_degree": {str(k): v for k, v in sorted(dims.by_degree.items())},
        "total": dims.total,
        "expected": expected,
        "ok": ok,
    }
    return report, None


def _cmd_check_gravity(g, args):
    rep = engine.check_gravity_relations(g, cap=args.cap)
    report = {
        "tube_relations": [
            {"tube": list(t), "holds": ok} for t, ok in rep.tube_results
        ],
        "total_relation_holds": rep.total_holds,
        "ok": rep.all_hold,
    }
    return report, None


def _cmd_relations(g, args):
    build = engine.gravity_relations if args.system == "grav" else engine.hypercom_relations
    rel = build(g, cap=args.cap)
    dense = [[v.get(i, 0) for i in range(len(rel.basis))] for v in rel.vectors]
    report = {
        "which": args.system,
        "basis": [list(t) for t in rel.basis_tubes],
        "vectors": dense,
        "span_dim": rel.span_dim(),
    }
    rows = [[i, *v] for i, v in enumerate(dense)]
    header = ["relation"] + ["e_" + "".join(map(str, t)) for t in rel.basis_tubes]
    return report, (rows, header)


def _cmd_koszul_check(g, args):
    hom = groebner.koszul_check(g, cap=args.cap)
    ok = all(dim == (1 if k == 0 else 0) for k, dim in hom.items())
    report = {
        "homology": {str(k): v for k, v in sorted(hom.items())},
        "ok": ok,
    }
    return report, None


def _cmd_normal_count(g, args):
    count = sum(groebner.normal_counts(g, args.system, cap=args.cap))
    report = {"system": args.system, "count": count}
    return report, ([[args.system, count]], ["system", "count"])


def _cmd_reduce(g, args):
    ns = _load_nested(g, args.tau, args.cap)
    red = groebner.reduction(ns)
    report = {"tau": ns.tubes, "reduced": red.tubes}
    return report, None


def _cmd_induce(g, args):
    ns = _load_nested(g, args.omega, args.cap)
    ind = groebner.induction(ns)
    report = {"omega": ns.tubes, "induced": ind.tubes}
    return report, None


def _cmd_axioms(g, args):
    out = {}
    ok = True
    for name, model in (("grcom", engine.GRCOM), ("gerst", engine.GRGERST)):
        rep = engine.check_axioms(model, g, cap=args.cap)
        out[name] = {
            "passed": rep.passed,
            "violations": [list(v) for v in rep.violations[:20]],
        }
        ok = ok and rep.passed
    report = {"models": out, "ok": ok}
    return report, None


_SWEEP_VALUES = {
    "vertex-count": lambda g, system, cap: polycomb.f_vector(g, cap=cap)[0],
    "nested-count": lambda g, system, cap: sum(polycomb.f_vector(g, cap=cap)),
    "grav-dim": lambda g, system, cap: engine.gravity_dims(g).total,
    "normal-count": lambda g, system, cap: sum(groebner.normal_counts(g, system, cap=cap)),
}


def _cmd_sweep(args):
    lo, _, hi = args.range.partition("..")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise GraphError(f"range must look like 2..6, got {args.range!r}") from None
    if hi < lo:
        raise GraphError(f"range {args.range!r} is empty: {hi} is below {lo}")
    ns = range(lo, hi + 1)
    values = [_SWEEP_VALUES[args.command](family(args.family, n), args.system, args.cap)
              for n in ns]
    rows = [[args.family, n, args.command, v] for n, v in zip(ns, values)]
    report = {
        "family": args.family,
        "command": args.command,
        "values": {str(n): v for n, v in zip(ns, values)},
    }
    return report, (rows, ["family", "n", "command", "value"])


# ---------------------------------------------------------------------------
# Argument wiring.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use and shared after:
    building it costs about a hundred times what a parse does.  Each parse
    still returns a fresh namespace."""
    parser = _Parser(prog="grakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *, graph=True, fmt="json", extra=()):
        p = sub.add_parser(name)
        if graph:
            p.add_argument("--graph", required=True, help="family shorthand, JSON, or file path")
        p.add_argument("--format", default=fmt, choices=("json", "csv", "dot", "text"))
        p.add_argument("--cap", type=int, default=None, help="vertex cap override")
        for flag, kw in extra:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)

    add("tubes", _cmd_tubes)
    add("nested", _cmd_nested, extra=[("--augmented", dict(action="store_true"))])
    add("maximal", _cmd_maximal)
    add("tree", _cmd_tree, fmt="dot", extra=[("--tau", dict(required=True, help="nested set JSON"))])
    add("fvector", _cmd_fvector)
    add("hpoly", _cmd_hpoly)
    add("betti", _cmd_betti)
    add("grav-dims", _cmd_grav_dims)
    add("check-gravity", _cmd_check_gravity)
    add("relations", _cmd_relations, extra=[
        ("--system", dict(required=True, choices=("grav", "hyper"))),
    ])
    add("koszul-check", _cmd_koszul_check)
    add("normal-count", _cmd_normal_count, extra=[
        ("--system", dict(required=True, choices=groebner.SYSTEMS)),
    ])
    add("reduce", _cmd_reduce, extra=[("--tau", dict(required=True))])
    add("induce", _cmd_induce, extra=[("--omega", dict(required=True))])
    add("axioms", _cmd_axioms)
    add("sweep", _cmd_sweep, graph=False, fmt="csv", extra=[
        ("--family", dict(required=True, choices=("path", "cycle", "complete", "star"))),
        ("--range", dict(required=True, help="like 2..6")),
        ("--command", dict(required=True, choices=_SWEEP_VALUES)),
        ("--system", dict(default="hyper", choices=groebner.SYSTEMS)),
    ])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cap is None:
            args.cap = _default_cap()
        if "graph" in args:
            report, csv_parts = args.fn(_load_graph(args.graph), args)
            report = report and {"graph": args.graph, **report}  # tree has none
        else:
            report, csv_parts = args.fn(args)
        if report is not None:
            _emit(report, args.format, csv_parts)
    except IdentityCheckFailed as exc:
        print(f"grakit: identity check failed: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except (GraphError, ValueError, KeyError, OSError) as exc:
        print(f"grakit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_IDENTITY if report and report.get("ok") is False else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
