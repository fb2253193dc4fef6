"""Golden CLI output: the SHA-256 of the concatenated stdout of a fixed list
of commands must not change.

The digest was recorded from the same command list before the graph and
nested-set routines were collapsed into one flood, one tree rule and one
tube lift, so it pins byte-identical reports across refactors of those
routines.  If a deliberate change of output format moves it, record the new
digest together with that change.
"""

import contextlib
import hashlib
import io
import json

from grakit.cli import main
from conftest import connected_classes_upto

GOLDEN_SHA256 = "d90d5bfabfe74ef33a9e26769a7812a2d1308eb33c74bdfbf353dee5c975c4b9"

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


def test_cli_output_digest():
    specs = [json.dumps(g.to_json()) for g in connected_classes_upto(4)] + FAMILIES_5
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
    for spec in ROUND_TRIP_HOSTS:
        for tubes in _sets(_run(["maximal", "--graph", spec])):
            tau = json.dumps({"tubes": tubes})
            chunks.append(_run(["reduce", "--graph", spec, "--tau", tau]))
        for tubes in _sets(_run(["nested", "--augmented", "--graph", spec])):
            omega = json.dumps({"tubes": tubes})
            chunks.append(_run(["induce", "--graph", spec, "--omega", omega]))
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
