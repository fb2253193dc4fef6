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
fails the identity check; ``nested`` writes each set as its parent's text
plus one tube, ``maximal``, listing leaves, joins each whole (``_listing``).
Every refusal comes before the first byte, and a format the command lacks is
refused before any work.  Exit codes: 0 success, 1 input error, 2 a
mathematical identity check failed.  The vertex cap defaults to the
GRAKIT_CAP environment variable when set; ``grav-dims`` ignores it.
``sweep`` checks every row's host against it before it computes any row,
then computes the rows one after another in the calling process.
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
    return nested_set_from_json(g, _read_json(spec), cap)


def _write_json(report: dict, out) -> None:
    """Write a report as one line of compact JSON, key by key.  A value that
    is an iterator is a streamed list: it yields the JSON text of each item,
    and each is written as it comes; the rest is written in one piece."""
    text = "{"
    for i, (key, value) in enumerate(report.items()):
        text += ("," if i else "") + _ENCODER.encode(key) + ":"
        if isinstance(value, Iterator):
            out.write(text + "[" + next(value, ""))
            out.writelines(map(",".__add__, value))
            text = "]"
        else:
            text += _ENCODER.encode(value)
    out.write(text + "}\n")


def _emit(report: dict, fmt: str, csv_parts) -> None:
    """Print a report; ``dot`` stands for json outside the tree command.
    text prints each value as its JSON text reads back, so tuples show as the
    json form's lists, and a streamed list, made in that form, item by item."""
    if fmt == "csv":
        rows, header = csv_parts
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    elif fmt == "text":
        for key, value in report.items():
            if isinstance(value, Iterator):
                sys.stdout.write(f"{key}: [" + next(value, ""))
                sys.stdout.writelines(map(", ".__add__, value))
                print("]")
            else:
                print(f"{key}: {json.loads(_ENCODER.encode(value))}")
    else:
        _write_json(report, sys.stdout)


def _listing(g: Graph, sets: Iterable[NestedSet], count: int, fmt: str, grown: bool = False) -> Iterator[str]:
    """Each set's text as ``sets`` yields it, json ``[[1],[1,2]]`` or with
    ``fmt`` text ``[[1], [1, 2]]``; raises IdentityCheckFailed unless exactly
    ``count`` sets came.  ``maximal`` joins each set's tube texts.  With
    ``grown`` (``nested``) a set of j + 1 masks is ``prefix[j]`` ("[" and its
    masks but the last, each with its separator) plus the last, and
    ``prefix[j]`` is ``prefix[j - 1]`` plus one tube.  The nested listings are
    prefix-closed (a family's rank-ordered prefixes are families, all listed)
    and lexicographic in the proper tubes' ranks, so the sets listed between
    a parent and its child extend it: ``prefix[j - 1]`` still holds the parent's."""
    sep = ", " if fmt == "text" else ","
    text = {m: "[" + sep.join(map(str, t)) + "]" for m, t in _tube_table(g)[0].items()}
    written = 0
    if grown:
        then, last = ({m: t + end for m, t in text.items()} for end in (sep, "]"))
        prefix = ["["] * (g.n + 1)
        for written, (_, ms) in enumerate(sets, 1):  # a NestedSet is (host, masks)
            j = len(ms) - 1
            prefix[j] = prefix[j - 1] + then[ms[j - 1]] if j else "["
            yield prefix[j] + last[ms[-1]]
    else:
        for written, ns in enumerate(sets, 1):
            yield "[" + sep.join(map(text.__getitem__, ns.masks)) + "]"
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
        "nested_sets": _listing(g, sets, count, args.format, grown=True),
    }
    return report, None


def _cmd_maximal(g, args):
    count = polycomb.f_vector(g, cap=args.cap)[0]
    sets = tubings.maximal_nested(g, cap=args.cap)
    report = {"count": count, "nested_sets": _listing(g, sets, count, args.format)}
    return report, None


def _cmd_tree(g, args):
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
    total = sum(dims.values())
    expected = 2 ** (g.n - 1)
    report = {
        "by_degree": {str(k): v for k, v in sorted(dims.items())},
        "total": total,
        "expected": expected,
        "ok": total == expected,
    }
    return report, None


def _cmd_check_gravity(g, args):
    results, total = engine.check_gravity_relations(g, cap=args.cap)
    report = {
        "tube_relations": [{"tube": list(t), "holds": ok} for t, ok in results],
        "total_relation_holds": total,
        "ok": total and all(ok for _, ok in results),
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
    found = {name: engine.check_axioms(model, g, cap=args.cap)
             for name, model in (("grcom", engine.GRCOM), ("gerst", engine.GRGERST))}
    models = {name: {"passed": not v, "violations": [list(x) for x in v[:20]]} for name, v in found.items()}
    return {"models": models, "ok": not any(found.values())}, None


_SWEEP_VALUES = {
    "vertex-count": lambda g, system, cap: polycomb.f_vector(g, cap=cap)[0],
    "nested-count": lambda g, system, cap: sum(polycomb.f_vector(g, cap=cap)),
    "grav-dim": lambda g, system, cap: sum(engine.gravity_dims(g).values()),
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
    hosts = []
    for n in ns:  # every row's host is refused, if at all, before any row is computed
        hosts.append(family(args.family, n))
        _check_host(hosts[-1], args.cap)
    values = [_SWEEP_VALUES[args.command](g, args.system, args.cap) for g in hosts]
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
    no_csv = {"csv": "this command has no csv form"}  # a command's refused formats, with their refusals

    def add(name, fn, *, graph=True, fmt="json", refuse=no_csv, extra=()):
        p = sub.add_parser(name)
        if graph:
            p.add_argument("--graph", required=True, help="family shorthand, JSON, or file path")
        p.add_argument("--format", default=fmt, choices=("json", "csv", "dot", "text"))
        p.add_argument("--cap", type=int, default=None, help="vertex cap override")
        for flag, kw in extra:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn, refuse=refuse)

    add("tubes", _cmd_tubes, refuse={})
    add("nested", _cmd_nested, extra=[("--augmented", dict(action="store_true"))])
    add("maximal", _cmd_maximal)
    add("tree", _cmd_tree, fmt="dot", refuse=dict.fromkeys(("json", "csv", "text"), "tree has only a dot form"),
        extra=[("--tau", dict(required=True, help="nested set JSON"))])
    add("fvector", _cmd_fvector, refuse={})
    add("hpoly", _cmd_hpoly, refuse={})
    add("betti", _cmd_betti, refuse={})
    add("grav-dims", _cmd_grav_dims)
    add("check-gravity", _cmd_check_gravity)
    add("relations", _cmd_relations, refuse={}, extra=[
        ("--system", dict(required=True, choices=("grav", "hyper"))),
    ])
    add("koszul-check", _cmd_koszul_check)
    add("normal-count", _cmd_normal_count, refuse={}, extra=[
        ("--system", dict(required=True, choices=groebner.SYSTEMS)),
    ])
    add("reduce", _cmd_reduce, extra=[("--tau", dict(required=True))])
    add("induce", _cmd_induce, extra=[("--omega", dict(required=True))])
    add("axioms", _cmd_axioms)
    add("sweep", _cmd_sweep, graph=False, fmt="csv", refuse={}, extra=[
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
        if args.format in args.refuse:  # before any work
            raise GraphError(args.refuse[args.format])
        if args.cap is None:
            args.cap = _default_cap()
        if args.cap < 1:
            raise ValueError(f"cap must be a positive integer, got {args.cap}")
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
