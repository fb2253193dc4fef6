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
"""

import contextlib
import io
import json
import random

import pytest

import grakit.cli as cli
from grakit import enumerate_nested, maximal_nested, tubes
from grakit.cli import main
from conftest import connected_classes_upto, relabelled

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

    def watched(g, sets, count):
        shown = None
        for item in listing(g, sets, count):
            if shown is not None:
                assert out.getvalue().endswith(shown), "a set was held back"
                checked.append(shown)
            yield item
            shown = item if fmt == "json" else repr(json.loads(item))

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
