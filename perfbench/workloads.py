"""Inputs, jobs and exact answer checks of the four benchmark workloads.

Graphs are generated here, by code independent of grakit: connected
isomorphism classes come from brute-force canonical forms, random connected
graphs are drawn with fixed edge counts, and the seed permutes the vertex
labels of every graph (see :func:`build`).  A graph reaches grakit only as
inline ``--graph`` JSON, or as the parse of that same JSON for jobs that
have no CLI command.

Every answer is checked exactly, against the paper's closed forms or
against oracles written here (a face-polynomial recursion over tubes that
shares no code with grakit).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import grakit
import grakit.cli

WORKLOADS = ("koszul", "monomials", "faces", "relations")


class JobFailed(Exception):
    """A job exited non-zero or its answer could not be read."""


@dataclass(frozen=True)
class Job:
    """One command of a workload.

    ``run`` does the timed work and returns the raw answer; ``check`` gets
    that answer, outside the timed region, and says whether it is right.
    ``cli`` marks jobs whose answer is a CLI report.
    """

    name: str
    spec: str  # what the job feeds grakit, for the job-list digest
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    cli: bool


# ---------------------------------------------------------------------------
# Graphs.  Internally a graph is (n, edges) on vertices 0..n-1.
# ---------------------------------------------------------------------------

def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _components(adj: list[int], mask: int) -> list[int]:
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            for v in range(len(adj)):
                if frontier >> v & 1:
                    nxt |= adj[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


def is_connected(n: int, edges) -> bool:
    return n > 0 and len(_components(_adjacency(n, edges), (1 << n) - 1)) == 1


def canonical_edges(n: int, edges) -> tuple:
    """Smallest relabelled sorted edge list over all n! relabellings."""
    return min(
        tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges))
        for p in itertools.permutations(range(n))
    )


@lru_cache(maxsize=None)
def _all_classes(n: int) -> tuple:
    """Isomorphism classes of graphs on n vertices, by adding vertex n-1 to
    every class on n-1 vertices in every way and deduplicating."""
    if n == 1:
        return ((),)
    out = {}
    for edges in _all_classes(n - 1):
        for bits in range(1 << (n - 1)):
            extended = edges + tuple((v, n - 1) for v in range(n - 1) if bits >> v & 1)
            out[canonical_edges(n, extended)] = None
    return tuple(out)


def connected_classes(n: int) -> list[tuple]:
    return [e for e in _all_classes(n) if is_connected(n, e)]


def family(kind: str, n: int) -> tuple:
    if kind == "path":
        return tuple((i, i + 1) for i in range(n - 1))
    if kind == "cycle":
        return tuple((i, (i + 1) % n) for i in range(n))
    if kind == "star":
        return tuple((0, i) for i in range(1, n))
    if kind == "complete":
        return tuple(itertools.combinations(range(n), 2))
    raise ValueError(kind)


def random_connected(rng: random.Random, n: int, m: int) -> tuple:
    """Uniform among connected labelled graphs with n vertices, m edges."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        if is_connected(n, edges):
            return edges


def graph_json(rng: random.Random, n: int, edges) -> str:
    """Inline --graph JSON with vertex labels 1..n permuted by ``rng``."""
    label = rng.sample(range(1, n + 1), n)
    return json.dumps(
        {"vertices": label, "edges": [[label[a], label[b]] for a, b in edges]},
        separators=(",", ":"),
    )


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def _polymul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


@lru_cache(maxsize=None)
def f_vector(n: int, edges: tuple) -> tuple:
    """Face numbers of the graph associahedron of a connected graph.

    An augmented nested set of a connected graph is its root label L (any
    nonempty vertex set) together with an augmented nested set on every
    component of the graph minus L, so the generating polynomial by number
    of tubes obeys P(G) = x * sum_L prod_C P(C).  f_i counts the nested
    sets with n - i tubes.
    """
    adj = _adjacency(n, edges)

    @lru_cache(maxsize=None)
    def poly(mask: int) -> tuple:
        total = [0] * (mask.bit_count() + 1)
        label = mask
        while label:
            prod = [0, 1]
            for comp in _components(adj, mask & ~label):
                prod = _polymul(prod, list(poly(comp)))
            for k, c in enumerate(prod):
                total[k] += c
            label = (label - 1) & mask
        return tuple(total)

    p = poly((1 << n) - 1)
    return tuple(p[n - i] for i in range(n))


def h_from_f(f) -> list[int]:
    """Coefficients of sum_i f_i (t - 1)^i."""
    h = [0] * len(f)
    for i, fi in enumerate(f):
        for j in range(i + 1):
            h[j] += fi * _binomial(i, j) * (-1) ** (i - j)
    return h


def _binomial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def tube_count(n: int, edges, lo: int, hi: int) -> int:
    """Number of vertex sets of size in [lo, hi] inducing a connected graph."""
    adj = _adjacency(n, edges)
    return sum(
        1 for m in range(1, 1 << n)
        if lo <= m.bit_count() <= hi and len(_components(adj, m)) == 1
    )


# ---------------------------------------------------------------------------
# Job runners.
# ---------------------------------------------------------------------------

def _cli_runner(argv: list[str]) -> Callable[[], str]:
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = grakit.cli.main(argv)
        if code != 0:
            raise JobFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return run


def cli_job(name: str, argv: list[str], check: Callable[[dict], bool]) -> Job:
    return Job(name, json.dumps(argv), _cli_runner(argv),
               lambda text: check(json.loads(text)), cli=True)


def lib_job(name: str, spec: str, fn: Callable[[Any], Any],
            check: Callable[[Any], bool]) -> Job:
    """A job with no CLI command: ``fn`` gets the graph parsed from ``spec``."""
    return Job(name, spec, lambda: fn(grakit.parse_graph(json.loads(spec))),
               check, cli=False)


def _graph_jobs(rng: random.Random, graphs) -> list[tuple[str, int, tuple, str]]:
    """(name, n, edges, inline JSON) per (name, n, edges), labels permuted."""
    return [(name, n, e, graph_json(rng, n, e)) for name, n, e in graphs]


# ---------------------------------------------------------------------------
# koszul: the cobar certificate, build plus exact homology.
# ---------------------------------------------------------------------------

def _koszul(shapes: random.Random, labels: random.Random, smoke: bool) -> list[Job]:
    graphs = [(f"class{n}.{i}", n, e)
              for n in range(1, 3 if smoke else 5)
              for i, e in enumerate(connected_classes(n))]
    if not smoke:
        graphs += [(f"{k}:5", 5, family(k, 5)) for k in ("path", "cycle", "star", "complete")]
        graphs += [("path:6", 6, family("path", 6))]

    def point(n):
        want = {str(k): int(k == 0) for k in range(n)}
        return lambda r: r["homology"] == want and r["ok"] is True

    return [cli_job(f"koszul-check {name}", ["koszul-check", "--graph", spec], point(n))
            for name, n, _, spec in _graph_jobs(labels, graphs)]


# ---------------------------------------------------------------------------
# monomials: per-monomial quadratic-divisor tests and the reduction and
# induction maps.
# ---------------------------------------------------------------------------

def _roundtrip(g) -> dict:
    """Criterion 11: reduction lands on normal monomials, induction is a
    section of reduction and is injective on normal monomials."""
    normals = set(grakit.normal_monomials(g, "hyper"))
    maximal = grakit.maximal_nested(g)
    bad = sum(1 for tau in maximal if not grakit.is_normal(grakit.reduction(tau), "hyper"))
    for w in grakit.enumerate_nested(g, augmented=True):
        back = grakit.reduction(grakit.induction(w))
        if not set(back.tubes) <= set(w.tubes) or (w in normals and back != w):
            bad += 1
    images = {grakit.induction(w) for w in normals}
    return {"bad": bad, "normals": len(normals), "images": len(images),
            "maximal": len(maximal)}


def _monomials(shapes: random.Random, labels: random.Random, smoke: bool) -> list[Job]:
    n = 4 if smoke else 6
    counts = (3, 5) if smoke else (5, 6, 7, 8, 9, 10, 11, 12)
    trips = (4,) if smoke else (6, 8, 10)
    counted = [(f"n{n}m{m}", n, random_connected(shapes, n, m)) for m in counts]
    tripped = [(f"n{n}m{m}", n, random_connected(shapes, n, m)) for m in trips]
    jobs = []
    for name, n, edges, spec in _graph_jobs(labels, counted):
        jobs.append(cli_job(f"normal-count grav {name}",
                            ["normal-count", "--system", "grav", "--graph", spec],
                            lambda r, n=n: r["count"] == 2 ** (n - 1)))
        jobs.append(cli_job(f"normal-count hyper {name}",
                            ["normal-count", "--system", "hyper", "--graph", spec],
                            lambda r, n=n, e=edges: r["count"] == f_vector(n, e)[0]))
    for name, n, edges, spec in _graph_jobs(labels, tripped):
        jobs.append(lib_job(f"reduction-induction {name}", spec, _roundtrip,
                            lambda r, n=n, e=edges: r["bad"] == 0 and r["normals"]
                            == r["images"] == r["maximal"] == f_vector(n, e)[0]))
    return jobs


# ---------------------------------------------------------------------------
# faces: tube tables, the nested-set backtracker, descents, big reports.
# ---------------------------------------------------------------------------

def _h_both(g) -> tuple:
    return (grakit.h_poly_from_descents(g), grakit.h_poly_from_f(grakit.f_vector(g)))


def _faces(shapes: random.Random, labels: random.Random, smoke: bool) -> list[Job]:
    if smoke:
        fgraphs = [("path:4", 4, family("path", 4)), ("cycle:4", 4, family("cycle", 4))]
        hgraphs = [("complete:4", 4, family("complete", 4))]
        maximal, nested = ("complete:4", 4, family("complete", 4)), ("path:4", 4, family("path", 4))
    else:
        fgraphs = [("path:9", 9, family("path", 9)), ("cycle:9", 9, family("cycle", 9)),
                   ("complete:8", 8, family("complete", 8)),
                   ("n9m10", 9, random_connected(shapes, 9, 10)),
                   ("n9m12", 9, random_connected(shapes, 9, 12))]
        hgraphs = [("complete:7", 7, family("complete", 7)),
                   ("n8m9", 8, random_connected(shapes, 8, 9)),
                   ("n8m11", 8, random_connected(shapes, 8, 11))]
        maximal = ("complete:7", 7, family("complete", 7))
        nested = ("path:9", 9, family("path", 9))
    jobs = []
    for name, n, edges, spec in _graph_jobs(labels, fgraphs):
        jobs.append(cli_job(f"fvector {name}", ["fvector", "--graph", spec],
                            lambda r, n=n, e=edges: r["f"] == list(f_vector(n, e))))
        jobs.append(cli_job(f"hpoly {name}", ["hpoly", "--graph", spec],
                            lambda r, n=n, e=edges: _palindrome(r["h"], n, e)))
    for name, n, edges, spec in _graph_jobs(labels, hgraphs):
        jobs.append(lib_job(f"h-descents-vs-f {name}", spec, _h_both,
                            lambda r, n=n, e=edges: r[0] == r[1]
                            and _palindrome(r[0], n, e)))
    (name, n, edges, spec), = _graph_jobs(labels, [maximal])
    jobs.append(cli_job(f"maximal {name}", ["maximal", "--graph", spec],
                        lambda r, n=n, e=edges: r["count"] == f_vector(n, e)[0]
                        == len({tuple(map(tuple, s)) for s in r["nested_sets"]})
                        and all(len(s) == n for s in r["nested_sets"])))
    (name, n, edges, spec), = _graph_jobs(labels, [nested])
    jobs.append(cli_job(f"nested --augmented {name}", ["nested", "--augmented", "--graph", spec],
                        lambda r, n=n, e=edges: r["count"] == sum(f_vector(n, e))
                        == len(r["nested_sets"])))
    return jobs


def _palindrome(h: list, n: int, edges: tuple) -> bool:
    """h equals the oracle's h-vector, which is palindromic (Dehn-Sommerville)."""
    want = h_from_f(f_vector(n, edges))
    return h == want == want[::-1]


# ---------------------------------------------------------------------------
# relations: the engine layer, and exact rank on dense matrices.
# ---------------------------------------------------------------------------

def _pairing(g) -> dict:
    rg, rh = grakit.gravity_relations(g), grakit.hypercom_relations(g)
    gram = grakit.relation_pairing(rg, rh)
    return {"nonzero": sum(1 for row in gram for x in row if x),
            "grav_span": rg.span_dim(), "hyper_span": rh.span_dim(),
            "basis": len(rg.basis)}


def _relations(shapes: random.Random, labels: random.Random, smoke: bool) -> list[Job]:
    if smoke:
        dims = [("path:4", 4, family("path", 4))]
        grav = [("cycle:4", 4, family("cycle", 4))]
        axioms = [("path:3", 3, family("path", 3))]
    else:
        dims = [("path:9", 9, family("path", 9)), ("path:10", 10, family("path", 10))]
        grav = [("complete:6", 6, family("complete", 6))] + [
            (f"n7m{m}", 7, random_connected(shapes, 7, m)) for m in (8, 10, 12)]
        axioms = [(f"class{n}.{i}", n, e) for n in range(1, 5)
                  for i, e in enumerate(connected_classes(n))]
        axioms += [("path:5", 5, family("path", 5))]
    jobs = []
    for name, n, _, spec in _graph_jobs(labels, dims):
        jobs.append(cli_job(f"grav-dims {name}", ["grav-dims", "--graph", spec],
                            lambda r, n=n: r["total"] == 2 ** (n - 1)
                            == sum(r["by_degree"].values()) and r["ok"] is True))
    for name, n, edges, spec in _graph_jobs(labels, grav):
        jobs.append(cli_job(f"check-gravity {name}", ["check-gravity", "--graph", spec],
                            lambda r, n=n, e=edges: r["ok"] is True
                            and r["total_relation_holds"] is True
                            and len(r["tube_relations"]) == tube_count(n, e, 2, n - 1)
                            and all(t["holds"] is True for t in r["tube_relations"])))
        jobs.append(lib_job(f"koszul-pairing {name}", spec, _pairing,
                            lambda r, n=n, e=edges: r["nonzero"] == 0
                            and r["hyper_span"] == n - 1
                            and r["grav_span"] + r["hyper_span"] == r["basis"]
                            == tube_count(n, e, 1, n - 1)))
    for name, n, _, spec in _graph_jobs(labels, axioms):
        jobs.append(cli_job(f"axioms {name}", ["axioms", "--graph", spec],
                            lambda r: r["ok"] is True
                            and sorted(r["models"]) == ["gerst", "grcom"]
                            and all(m["passed"] is True and not m["violations"]
                                    for m in r["models"].values())))
    return jobs


_BUILDERS = {"koszul": _koszul, "monomials": _monomials,
             "faces": _faces, "relations": _relations}


def build(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The job list of a workload; the same seed gives the same jobs.

    The shapes of the random graphs are drawn once, from a fixed seed, and
    ``seed`` permutes the vertex labels of every graph.  Labels set the
    vertex order that normal monomials, leading terms and the nested-set
    order depend on, while the amount of work stays the same from seed to
    seed, so that runs with different seeds can be compared.
    """
    shapes = random.Random(f"shapes:{workload}")
    return _BUILDERS[workload](shapes, random.Random(f"{workload}:{seed}"), smoke)


def digest(jobs: list[Job]) -> str:
    """Short hash of the job list, so two runs can be shown to share inputs."""
    text = json.dumps([[j.name, j.spec] for j in jobs])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
