"""Golden CLI output: the SHA-256 of the concatenated stdout of a fixed list
of commands must not change.

The first digest was recorded from the same command list before the graph
and nested-set routines were collapsed into one flood, one tree rule and one
tube lift, so it pins byte-identical reports across refactors of those
routines.  The second runs the same command list on a fixed, seeded
relabelling of every host into labels from 1..29; it was recorded before
nested sets were stored as tube bitmasks, whose order rests on bit order
matching label order.  The third covers the engine commands (relations,
check-gravity, grav-dims and axioms) on both host lists; it was recorded
before the engine moved from rational to integer coefficients and from
label tuples to tube masks.  The fourth covers the forms the other three
leave out: ``betti``, the csv and text forms, ``sweep`` and ``tree``; it
was recorded before every command's report went through one ``main``
that loads the host, writes ``graph`` first and sets the exit code.  The
first, second and fourth were recorded a fifth time when the nested-set
walk began to visit tubes in canonical rank order, which lists the sets of
``nested`` and ``maximal`` lexicographically in their rank tuples; before
recording, every listing report on the digest corpora, the classes ≤ 5,
path/cycle/star:7 and complete:6 was shown equal to the old one in every
key but ``nested_sets``, those sets a permutation of the old ones, and
every other command's stdout byte-identical.  The engine digest did not
move.  If a deliberate change of output format or order moves a digest,
record the new one together with that change.
"""

import contextlib
import hashlib
import io
import json
import random

from grakit import parse_graph
from grakit.cli import main
from conftest import connected_classes_upto, relabelled

GOLDEN_SHA256 = "6ee3bb7b29b744748fe0e252019c27b57b1b756b2e15831e85c38edcf24aa333"
GOLDEN_RELABELLED_SHA256 = "d0b09a6628225003b61c8271b9b902078869263f33fe6204481d052c5ec8420c"
GOLDEN_ENGINE_SHA256 = "381aa51c36b267ce77a065105c8f458784950a8ca720f60a04dba5b48485cb7b"
GOLDEN_FORMATS_SHA256 = "a4c83f709c7c84392a2e0d70c4fb1656fd9b077f994ded482b566c026ba81a63"

FAMILIES_5 = ["path:5", "cycle:5", "star:5", "complete:5"]
ROUND_TRIP_HOSTS = ["path:4", "complete:4"]


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def _sets(out: str) -> list:
    return json.loads(out)["nested_sets"]


def _digest(specs: list[str], round_trip_hosts: list[str]) -> str:
    chunks = []
    for spec in specs:
        for argv in (
            ["nested", "--augmented"],
            ["maximal"],
            ["fvector"],
            ["hpoly"],
            ["normal-count", "--system", "grav"],
            ["normal-count", "--system", "hyper"],
            ["koszul-check"],
        ):
            chunks.append(_run(argv + ["--graph", spec]))
    for spec in round_trip_hosts:
        for tubes in _sets(_run(["maximal", "--graph", spec])):
            tau = json.dumps({"tubes": tubes})
            chunks.append(_run(["reduce", "--graph", spec, "--tau", tau]))
        for tubes in _sets(_run(["nested", "--augmented", "--graph", spec])):
            omega = json.dumps({"tubes": tubes})
            chunks.append(_run(["induce", "--graph", spec, "--omega", omega]))
    return hashlib.sha256("".join(chunks).encode()).hexdigest()


def test_cli_output_digest():
    specs = [json.dumps(g.to_json()) for g in connected_classes_upto(4)] + FAMILIES_5
    assert _digest(specs, ROUND_TRIP_HOSTS) == GOLDEN_SHA256


def test_cli_output_digest_relabelled():
    rng = random.Random(20261018)

    def relabel(g) -> str:
        return json.dumps(relabelled(g, rng).to_json())

    specs = [relabel(g) for g in connected_classes_upto(4)]
    specs += [relabel(parse_graph(s)) for s in FAMILIES_5]
    hosts = [relabel(parse_graph(s)) for s in ROUND_TRIP_HOSTS]
    assert _digest(specs, hosts) == GOLDEN_RELABELLED_SHA256


def test_engine_cli_output_digest():
    rng = random.Random(20261019)
    hosts = connected_classes_upto(4) + [parse_graph(s) for s in FAMILIES_5]
    hosts += [relabelled(g, rng) for g in hosts]
    chunks = []
    for g in hosts:
        spec = json.dumps(g.to_json())
        argvs = [["grav-dims"], ["axioms"]]
        if g.n >= 2:  # relations and the gravity check need two vertices
            argvs += [["relations", "--system", "grav"], ["relations", "--system", "hyper"],
                      ["relations", "--system", "grav", "--format", "csv"], ["check-gravity"]]
        for argv in argvs:
            chunks.append(_run(argv + ["--graph", spec]))
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == GOLDEN_ENGINE_SHA256


def test_formats_cli_output_digest():
    rng = random.Random(20261021)
    hosts = connected_classes_upto(4) + [parse_graph(s) for s in FAMILIES_5]
    hosts += [relabelled(g, rng) for g in hosts]
    chunks = []
    for g in hosts:
        spec = json.dumps(g.to_json())
        argvs = [["betti"], ["betti", "--format", "csv"], ["tubes", "--format", "csv"],
                 ["fvector", "--format", "csv"], ["fvector", "--format", "text"],
                 ["hpoly", "--format", "csv"], ["grav-dims", "--format", "text"],
                 ["normal-count", "--system", "grav", "--format", "csv"],
                 ["normal-count", "--system", "hyper", "--format", "csv"]]
        if g.n >= 2:
            argvs.append(["relations", "--system", "hyper", "--format", "csv"])
        for argv in argvs:
            chunks.append(_run(argv + ["--graph", spec]))
        if g.n <= 4:
            for tubes in _sets(_run(["nested", "--augmented", "--graph", spec])):
                tau = json.dumps({"tubes": tubes})
                chunks.append(_run(["tree", "--graph", spec, "--tau", tau]))
    for family in ("path", "cycle", "complete", "star"):
        for command in ("vertex-count", "nested-count", "grav-dim", "normal-count"):
            for fmt in ("csv", "json"):
                chunks.append(_run(["sweep", "--family", family, "--range", "3..5",
                                    "--command", command, "--system", "grav",
                                    "--format", fmt]))
        chunks.append(_run(["sweep", "--family", family, "--range", "3..5",
                            "--command", "normal-count"]))
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == GOLDEN_FORMATS_SHA256
