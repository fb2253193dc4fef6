"""Byte identity of the listing reports.

``nested``, ``nested --augmented``, ``maximal`` and ``tubes`` must print, in
every format, exactly what the plain construction prints: the whole report
built as a list of label tuples and encoded by one ``json.dumps`` call (or,
for ``text``, read back through ``json.loads``).  The oracle below builds the
reports that way, independently of how the CLI writes them.  The golden
digests cover only the json form of ``nested --augmented`` and ``maximal``.

The listings state their count before the sets, from the face recursion,
and check it against the sets written; the negative control below breaks
that count to see the check fire.

The ``nested`` listings write each set from its parent's text.  The per-set
join they used before, each tube's JSON text joined and the text form read
back through ``json.loads``, is kept below as their oracle; fed the sets of
the old ≺-order walk, which can list a set before its parent, the grown
listing must differ from it.
"""

import contextlib
import io
import json
import random

import pytest

import grakit.cli as cli
from grakit import enumerate_nested, family, maximal_nested, tubes
from grakit.cli import main
from grakit.tubings import NestedSet, _tube_table
from conftest import connected_classes_upto, prec_order_walk, random_connected_graphs, relabelled

COMMANDS = (["nested"], ["nested", "--augmented"], ["maximal"], ["tubes"])
FORMATS = ("json", "text", "dot")


def _hosts():
    rng = random.Random(20261020)
    hosts = connected_classes_upto(5)
    return hosts + [relabelled(g, rng) for g in hosts]


def _oracle_report(g, spec: str, command: list[str]) -> dict:
    if command[0] == "tubes":
        return {"graph": spec, "tubes": [list(t) for t in tubes(g)]}
    if command[0] == "maximal":
        sets = [ns.tubes for ns in maximal_nested(g)]
        return {"graph": spec, "count": len(sets), "nested_sets": sets}
    augmented = "--augmented" in command
    sets = [ns.tubes for ns in enumerate_nested(g, augmented)]
    return {"graph": spec, "augmented": augmented, "count": len(sets), "nested_sets": sets}


def _oracle(report: dict, fmt: str) -> str:
    if fmt == "text":
        return "".join(f"{k}: {v}\n" for k, v in json.loads(json.dumps(report)).items())
    return json.dumps(report, separators=(",", ":")) + "\n"


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_listing_reports_byte_identical(command):
    for g in _hosts():
        spec = json.dumps(g.to_json())
        report = _oracle_report(g, spec, command)
        for fmt in FORMATS:
            argv = command + ["--graph", spec, "--format", fmt]
            assert _stdout(argv) == _oracle(report, fmt), argv


LISTINGS = (["nested"], ["nested", "--augmented"], ["maximal"])


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("command", LISTINGS, ids=" ".join)
def test_listings_write_each_set_before_the_next(monkeypatch, command, fmt):
    # a listing is never held whole: each set reaches stdout before the walk
    # yields the next one, in the text form as in the json form
    out = io.StringIO()
    listing = cli._listing
    checked = []

    def watched(*args, **kwargs):
        shown = None
        for item in listing(*args, **kwargs):
            if shown is not None:
                assert out.getvalue().endswith(shown), "a set was held back"
                checked.append(shown)
            yield item
            shown = item  # the listing yields each set in the form it is written

    monkeypatch.setattr(cli, "_listing", watched)
    with contextlib.redirect_stdout(out):
        assert main(command + ["--graph", "path:4", "--format", fmt]) == 0
    assert len(checked) > 1


@pytest.mark.parametrize("command", LISTINGS, ids=" ".join)
def test_listing_count_mismatch_exits_two(capsys, monkeypatch, command):
    f_vector = cli.polycomb.f_vector
    monkeypatch.setattr(cli.polycomb, "f_vector",
                        lambda g, cap: [f_vector(g, cap)[0] + 1, *f_vector(g, cap)[1:]])
    code = main(command + ["--graph", "path:4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("grakit: identity check failed: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt, shown", [("json", '"nested_sets":[]}'), ("text", "nested_sets: []")])
def test_empty_listing(capsys, monkeypatch, fmt, shown):
    # the one-vertex host has no proper tube, so the plain listing is empty:
    # the writer's first item is the end of the walk
    assert main(["nested", "--graph", "path:1", "--format", fmt]) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith(shown)
    # and a count of one more set still fails the identity check
    monkeypatch.setattr(cli.polycomb, "f_vector", lambda g, cap: [2])
    assert main(["nested", "--graph", "path:1", "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("grakit: identity check failed: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", LISTINGS, ids=" ".join)
@pytest.mark.parametrize("args", [
    ["--graph", "path:10"],
    ["--graph", '{"vertices":[1,2,3],"edges":[[1,2]]}'],
    ["--graph", "path:4", "--format", "csv"],
], ids=["cap", "disconnected", "csv"])
def test_refused_listing_writes_nothing(capsys, command, args):
    code = main(command + args)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("grakit: error: ") and err.count("\n") == 1


def _joined(g, sets) -> list[str]:
    """The json text of each set by the per-set join: each tube's JSON text,
    joined whole."""
    text = {m: json.dumps(t, separators=(",", ":")) for m, t in _tube_table(g)[0].items()}
    return ["[" + ",".join(map(text.__getitem__, ns.masks)) + "]" for ns in sets]


def _grown_agrees(g, sets) -> bool:
    """Whether the grown listing of ``sets``, its items joined as the report
    joins them, writes in the json and the text form what the per-set join
    writes; the join's text form is its json text read back through
    ``json.loads``."""
    sets = list(sets)
    want = "[" + ",".join(_joined(g, sets)) + "]"

    def written(fmt, sep):
        return "[" + sep.join(cli._listing(g, sets, len(sets), fmt, grown=True)) + "]"
    return written("json", ",") == want and written("text", ", ") == repr(json.loads(want))


def test_grown_listing_equals_the_per_set_join(classes_upto_6):
    rng = random.Random(2028)
    sampled = random_connected_graphs(7, 2, seed=2028) + random_connected_graphs(8, 1, seed=2028, p=0.3)
    hosts = (classes_upto_6 + [family(k, 7) for k in ("path", "cycle", "star", "complete")]
             + [relabelled(g, rng) for g in sampled])
    for g in hosts:
        for augmented in (False, True):
            assert _grown_agrees(g, enumerate_nested(g, augmented)), (g, augmented)


def test_grown_listing_differs_on_the_prec_order_walk():
    # negative control: path:4's ≺ walk lists {{1}, {4}, {3, 4}} right after
    # {{4}, {3, 4}} and before its parent {{1}, {4}}, so the grown listing
    # writes it from the wrong set's text
    g = family("path", 4)
    walk = list(prec_order_walk(g))
    for masks in (walk, [ms[:-1] for ms in walk[1:]]):  # augmented, plain
        assert not _grown_agrees(g, [NestedSet(g, ms) for ms in masks])
