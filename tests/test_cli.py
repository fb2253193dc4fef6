import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import grakit
from grakit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hpoly_json(capsys):
    code, out, _ = run(capsys, "hpoly", "--graph", "path:3")
    assert code == 0
    assert json.loads(out) == {"graph": "path:3", "h": [1, 3, 1]}


def test_normal_count(capsys):
    code, out, _ = run(capsys, "normal-count", "--system", "hyper", "--graph", "complete:4")
    assert code == 0
    assert json.loads(out)["count"] == 24


def test_tubes_singleton(capsys):
    code, out, _ = run(capsys, "tubes", "--graph", "path:1")
    assert code == 0
    assert json.loads(out)["tubes"] == [[1]]


def test_fvector_formats(capsys):
    code, out, _ = run(capsys, "fvector", "--graph", "path:3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["dim,count", "0,5", "1,5", "2,1"]
    code, out, _ = run(capsys, "fvector", "--graph", "path:3", "--format", "text")
    assert code == 0
    assert "f: [5, 5, 1]" in out


def test_sweep_catalan_and_factorial(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "path", "--range", "2..6",
                       "--command", "vertex-count")
    assert code == 0
    values = [line.split(",")[-1] for line in out.splitlines()[1:]]
    assert values == ["2", "5", "14", "42", "132"]
    code, out, _ = run(capsys, "sweep", "--family", "complete", "--range", "2..5",
                       "--command", "vertex-count")
    assert values and code == 0
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["2", "6", "24", "120"]


SWEEP = ["sweep", "--family", "path", "--command", "nested-count"]


def test_sweep_single_row_and_counts(capsys):
    code, out1, _ = run(capsys, *SWEEP, "--range", "1..1")
    assert code == 0
    assert out1.splitlines()[1:] == ["path,1,nested-count,1"]
    code, out, _ = run(capsys, *SWEEP, "--range", "2..6")
    assert code == 0
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == \
        ["3", "11", "45", "197", "903"]
    code, out, _ = run(capsys, "sweep", "--family", "path", "--range", "2..5",
                       "--command", "normal-count", "--system", "grav")
    assert code == 0
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == \
        ["2", "4", "8", "16"]


def test_sweep_worker_refusal_is_one_line_error(capsys):
    # the last row's host is refused before the first row is computed
    code, out, err = run(capsys, *SWEEP, "--range", "8..10")
    assert code == 1 and out == ""
    assert err == "grakit: error: 10 vertices exceeds cap 9\n"


def test_sweep_refuses_every_row_before_computing_any(capsys, monkeypatch):
    # grav-dim rows are capped too: the rows past path:9 would run for hours
    import grakit.cli as cli

    def compute(g):
        pytest.fail("a row was computed before every host was checked")

    monkeypatch.setattr(cli.engine, "gravity_dims", compute)
    code, out, err = run(capsys, "sweep", "--family", "path", "--range", "2..30",
                         "--command", "grav-dim")
    assert code == 1 and out == ""
    assert err == "grakit: error: 10 vertices exceeds cap 9\n"


@pytest.mark.parametrize("span", ["5..3", "2..1"])
def test_sweep_reversed_range_is_one_line_error(capsys, span):
    code, out, err = run(capsys, *SWEEP, "--range", span)
    assert code == 1 and out == ""
    assert err.startswith("grakit: error: ") and err.count("\n") == 1


def test_tree_dot(capsys):
    code, out, _ = run(capsys, "tree", "--graph", "path:3",
                       "--tau", '{"tubes": [[1], [1, 2], [1, 2, 3]]}')
    assert code == 0
    assert out.startswith("digraph")
    assert "{1,2} | λ={2}" in out


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_tree_has_only_a_dot_form(capsys, fmt):
    code, out, err = run(capsys, "tree", "--graph", "path:3",
                         "--tau", '{"tubes": [[1], [1, 2], [1, 2, 3]]}', "--format", fmt)
    assert code == 1 and out == ""
    assert err == "grakit: error: tree has only a dot form\n"


def test_reduce_and_induce(capsys):
    code, out, _ = run(capsys, "reduce", "--graph", "complete:2",
                       "--tau", '{"tubes": [[1], [1, 2]]}')
    assert code == 0
    assert json.loads(out)["reduced"] == [[1, 2]]
    code, out, _ = run(capsys, "induce", "--graph", "path:3",
                       "--omega", '{"tubes": [[2, 3], [1, 2, 3]]}')
    assert code == 0
    assert json.loads(out)["induced"] == [[2], [2, 3], [1, 2, 3]]


def test_relations_system_flag(capsys):
    code, out, _ = run(capsys, "relations", "--system", "hyper", "--graph", "path:3")
    assert code == 0
    data = json.loads(out)
    assert data["span_dim"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["relations", "--graph", "path:3"])
    assert exc.value.code == 1


def test_identity_commands_exit_zero(capsys):
    for argv in (
        ["koszul-check", "--graph", "path:3"],
        ["check-gravity", "--graph", "path:3"],
        ["grav-dims", "--graph", "path:3"],
        ["axioms", "--graph", "path:3"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("command, module, name, fake", [
    ("grav-dims", "engine", "gravity_dims",
     lambda g: {0: 1}),
    ("check-gravity", "engine", "check_gravity_relations",
     lambda g, cap: ((((1, 2), False),), True)),
    ("axioms", "engine", "check_axioms",
     lambda model, g, cap: (("unit", "stub"),)),
    ("koszul-check", "groebner", "koszul_check", lambda g, cap: {0: 2, 1: 1}),
], ids=["grav-dims", "check-gravity", "axioms", "koszul-check"])
def test_identity_failure_exits_two(capsys, monkeypatch, command, module, name, fake):
    import grakit.cli as cli

    monkeypatch.setattr(getattr(cli, module), name, fake)
    code, out, _ = run(capsys, command, "--graph", "path:3")
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_axioms_report_lists_the_first_twenty_violations(capsys, monkeypatch):
    # the unsigned merge breaks the square-zero model only; its report keeps
    # the first 20 violations, in the order check_axioms found them
    monkeypatch.setattr(grakit.GrComX, "_merge_sign", lambda self, seq: 1)
    violations = grakit.check_axioms(grakit.GRGERST, grakit.family("path", 4))
    assert len(violations) == 56
    code, out, _ = run(capsys, "axioms", "--graph", "path:4")
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["models"]["grcom"] == {"passed": True, "violations": []}
    assert report["models"]["gerst"] == {"passed": False, "violations": [list(v) for v in violations[:20]]}


def test_input_errors_exit_one(capsys):
    assert run(capsys, "fvector", "--graph", "path:zzz")[0] == 1
    assert run(capsys, "fvector", "--graph", "banana:3")[0] == 1
    assert run(capsys, "fvector", "--graph", '{"vertices": [1], "edges": [[1, 1]]}')[0] == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_cap_and_env(capsys, monkeypatch):
    monkeypatch.setenv("GRAKIT_CAP", "3")
    assert run(capsys, "fvector", "--graph", "path:4")[0] == 1
    assert run(capsys, "fvector", "--graph", "path:4", "--cap", "9")[0] == 0
    monkeypatch.delenv("GRAKIT_CAP")
    assert run(capsys, "fvector", "--graph", "path:4")[0] == 0


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # main parses with one parser per process; each call must see only its own flags
    monkeypatch.delenv("GRAKIT_CAP", raising=False)
    code, out, _ = run(capsys, "nested", "--augmented", "--graph", "path:3")
    assert code == 0 and json.loads(out)["count"] == 11
    code, out, _ = run(capsys, "nested", "--graph", "path:3")
    assert code == 0 and json.loads(out)["count"] == 10
    with pytest.raises(SystemExit) as exc:
        main(["fvector"])
    assert exc.value.code == 1
    capsys.readouterr()
    code, out, _ = run(capsys, "fvector", "--graph", "path:3")
    assert code == 0 and json.loads(out)["f"] == [5, 5, 1]
    monkeypatch.setenv("GRAKIT_CAP", "2")
    code, out, err = run(capsys, "fvector", "--graph", "path:3")
    assert code == 1 and out == ""
    assert err.startswith("grakit: error: ") and err.count("\n") == 1


def test_graph_file_input(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}')
    code, out, _ = run(capsys, "betti", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["betti"] == [1, 3, 1]


def test_output_is_deterministic(capsys):
    outs = {run(capsys, "nested", "--graph", "path:4", "--augmented")[1] for _ in range(3)}
    assert len(outs) == 1


def test_koszul_check_complete6(capsys):
    code, out, _ = run(capsys, "koszul-check", "--graph", "complete:6")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("argv", [
    ["fvector", "--graph", "complete:99999999999999999999"],
    ["sweep", "--family", "complete", "--range", "100000..100000", "--command", "vertex-count"],
])
def test_family_past_the_ceiling_is_one_line_error(capsys, monkeypatch, argv):
    # complete:n hands make_graph a lazy edge stream, so a build that starts
    # before the size check fails here at once instead of running for hours
    import grakit.graphs as graphs

    def build(*args):
        pytest.fail("the family was built before its size was checked")

    monkeypatch.setattr(graphs, "make_graph", build)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("grakit: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["fvector", "--graph", "path:3", "--cap", "-5"],
    ["grav-dims", "--graph", "path:3", "--cap", "-1"],
    ["nested", "--graph", "path:3", "--cap", "0"],
])
def test_cap_below_one_is_one_line_error(capsys, monkeypatch, argv):
    # refused before any work, grav-dims included, which ignores the cap
    monkeypatch.delenv("GRAKIT_CAP", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"grakit: error: cap must be a positive integer, got {int(argv[-1])}\n"


@pytest.mark.parametrize("env", ["0", "-3"])
def test_cap_env_below_one_is_one_line_error(capsys, monkeypatch, env):
    monkeypatch.setenv("GRAKIT_CAP", env)
    for command in (["fvector"], ["grav-dims"]):
        code, out, err = run(capsys, *command, "--graph", "path:3")
        assert (code, out) == (1, "")
        assert err == f"grakit: error: cap must be a positive integer, got {env}\n"
    # a flag of 1 or more overrides the environment
    assert run(capsys, "fvector", "--graph", "path:3", "--cap", "3")[0] == 0


def test_bad_cap_env_is_one_line_error(capsys, monkeypatch):
    monkeypatch.setenv("GRAKIT_CAP", "abc")
    code, out, err = run(capsys, "fvector", "--graph", "path:3")
    assert code == 1 and out == ""
    assert err.startswith("grakit: error: ") and err.count("\n") == 1
    assert "GRAKIT_CAP" in err


def test_bool_vertex_labels_rejected(capsys):
    code, _, err = run(capsys, "fvector", "--graph", '{"vertices":[true,2],"edges":[]}')
    assert code == 1 and err.startswith("grakit: error: ")


def test_jobs_refused_on_every_command(capsys):
    for argv in (["fvector", "--graph", "path:3"],
                 ["sweep", "--family", "path", "--range", "2..5", "--command", "vertex-count"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert captured.err == "grakit: error: unrecognized arguments: --jobs 2\n"


@pytest.mark.parametrize("argv", [
    ["fvector", "--graph", '{"vertices":5,"edges":[]}'],
    ["fvector", "--graph", '{"vertices":[1,2],"edges":[5]}'],
    ["fvector", "--graph", '{"vertices":[[1]],"edges":[]}'],
    ["fvector", "--graph", '{"vertices":[1,2],"edges":null}'],
    ["reduce", "--graph", "path:3", "--tau", '{"tubes": 5}'],
    ["reduce", "--graph", "path:3", "--tau", '{"tubes": [[1,"a"]]}'],
    ["reduce", "--graph", "path:3", "--tau", '[1]'],
    ["tree", "--graph", "path:3", "--tau", '{"tubes":[[2,2],[1,2,3]]}'],
    ["reduce", "--graph", "path:3", "--tau", '{"tubes":[[1,1],[1,2],[1,2,3]]}'],
])
def test_malformed_json_is_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("grakit: error: ") and err.count("\n") == 1


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ["fvector", "--graph", '{"vertices": ' + _DEEP + ', "edges": []}'],
    ["tree", "--graph", "path:3", "--tau", '{"tubes": ' + _DEEP + '}'],
])
def test_deeply_nested_json_is_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "grakit: error: JSON input is nested too deeply\n"


@pytest.mark.parametrize("command", ["axioms", "grav-dims", "betti"])
def test_disconnected_host_is_one_line_error(capsys, command):
    code, out, err = run(capsys, command, "--graph", '{"vertices":[1,2,3],"edges":[[1,2]]}')
    assert code == 1 and out == ""
    assert err.startswith("grakit: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["nested"],
    ["nested", "--augmented"],
    ["maximal"],
    ["grav-dims"],
    ["check-gravity"],
    ["koszul-check"],
    ["axioms"],
    ["reduce", "--tau", '{"tubes":[[1],[1,2],[1,2,3]]}'],
    ["induce", "--omega", '{"tubes":[[1,2,3]]}'],
])
def test_csv_without_csv_form_is_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--graph", "path:3", "--format", "csv")
    assert code == 1 and out == ""
    assert err == "grakit: error: this command has no csv form\n"


@pytest.mark.parametrize("command, module, name", [
    ("koszul-check", "groebner", "koszul_check"),
    ("axioms", "engine", "check_axioms"),
])
def test_csv_is_refused_before_the_library_call(capsys, monkeypatch, command, module, name):
    import grakit.cli as cli

    def compute(*args, **kwargs):
        pytest.fail("the command ran before its format was refused")

    monkeypatch.setattr(getattr(cli, module), name, compute)
    code, out, err = run(capsys, command, "--graph", "complete:7", "--format", "csv")
    assert code == 1 and out == ""
    assert err == "grakit: error: this command has no csv form\n"


def test_relations_take_the_cap(capsys):
    code, out, err = run(capsys, "relations", "--system", "grav", "--graph", "complete:10",
                         "--cap", "10")
    assert code == 0, err
    data = json.loads(out)
    assert len(data["basis"]) == 2 ** 10 - 2
    assert data["span_dim"] == len(data["basis"]) - 9


def test_check_gravity_takes_the_cap(capsys):
    code, out, err = run(capsys, "check-gravity", "--graph", "path:10", "--cap", "10")
    assert code == 0, err
    assert json.loads(out)["ok"] is True
    code, out, err = run(capsys, "check-gravity", "--graph", "path:10")
    assert code == 1 and out == ""
    assert err == "grakit: error: 10 vertices exceeds cap 9\n"


PATH_18_TOP = '{"tubes": [[%s]]}' % ",".join(map(str, range(1, 19)))


@pytest.mark.parametrize("argv", [
    ["induce", "--omega", PATH_18_TOP],
    ["reduce", "--tau", PATH_18_TOP],
    ["tree", "--tau", PATH_18_TOP],
])
def test_nested_set_commands_apply_the_cap(capsys, argv):
    code, out, err = run(capsys, *argv, "--graph", "path:18")
    assert code == 1 and out == ""
    assert err == "grakit: error: 18 vertices exceeds cap 9\n"


def test_nested_set_commands_pass_the_cap_through(capsys):
    code, out, _ = run(capsys, "induce", "--graph", "path:18", "--omega", PATH_18_TOP,
                       "--cap", "18")
    assert code == 0
    assert json.loads(out)["induced"][-1] == list(range(1, 19))


def test_nested_set_commands_refuse_a_disconnected_host(capsys):
    # the host is refused before its tube table is built and the set is read
    code, out, err = run(capsys, "reduce", "--graph", '{"vertices": [1, 2], "edges": []}',
                         "--tau", '{"tubes": [[1], [1, 2]]}')
    assert code == 1 and out == ""
    assert err == "grakit: error: host graph must be connected\n"


@pytest.mark.parametrize("graph", ["complete:9", "complete:64"])
def test_a_non_vertex_refusal_names_the_value_not_the_host(capsys, graph):
    # a tube naming a vertex the host lacks is refused in one short line,
    # however big the host
    code, out, err = run(capsys, "reduce", "--graph", graph, "--cap", "64",
                         "--tau", '{"tubes": [[99], [1,2,3,4,5,6,7,8,9]]}')
    assert code == 1 and out == ""
    assert err == "grakit: error: 99 is not a vertex of the host\n"


def test_python_dash_m_runs_the_cli():
    # run the package this suite imports, wherever it is installed
    src = os.path.dirname(os.path.dirname(grakit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "grakit", "fvector", "--graph", "path:3"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["f"] == [5, 5, 1]


BIG = 30_000


@pytest.mark.parametrize("graph, message", [
    ({"vertices": [1] * BIG, "edges": []}, "duplicate vertex label 1"),
    ({"vertices": list(range(1, BIG + 1)), "edges": [[1, BIG + 1]]},
     f"edge (1,{BIG + 1}) has an endpoint that is not a vertex label"),
    ({"vertices": [[1, 1]] * BIG, "edges": []},
     "vertex labels must be positive integers, got [1, 1]"),
    ({"vertices": [list(range(BIG))], "edges": []},
     "vertex labels must be positive integers, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11..."),
], ids=["duplicate", "dangling-edge", "bad-label", "long-label"])
def test_graph_errors_name_one_value(tmp_path, capsys, graph, message):
    # a big graph file gives a short error, not one the size of the file
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(capsys, "fvector", "--graph", str(path))
    assert code == 1 and out == ""
    assert err == f"grakit: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["fvector", "--graph", "path:1e3"], "graph shorthand must look like 'path:4', got 'path:1e3'"),
    ([*SWEEP, "--range", "3..x"], "range must look like 2..6, got '3..x'"),
    ([*SWEEP, "--range", "..3"], "range must look like 2..6, got '..3'"),
    # a newline in the input stays inside the quotes of a one-line message
    (["fvector", "--graph", "pa\nth:99"], "'pa\\nth:99' has more than 64 vertices"),
    ([*SWEEP, "--range", "5\n..3"], "range '5\\n..3' is empty: 3 is below 5"),
], ids=["shorthand", "range-end", "range-start", "family-newline", "range-newline"])
def test_malformed_numbers_name_the_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"grakit: error: {message}\n"


_LABELS = (st.integers(-2, 12) | st.booleans() | st.floats() | st.none()
           | st.text(max_size=2) | st.lists(st.integers(0, 3), max_size=2))
_SIZES = st.integers(-2, 5) | st.integers(10, grakit.graphs.FAMILY_MAX_N + 5)
_JUNK = st.text(st.characters(blacklist_characters="/"), max_size=12)  # no path to a device file
_SHORTHAND = st.builds("{}:{}".format, st.sampled_from(["path", "cycle", "complete", "star", "wheel"]) | _JUNK,
                       _SIZES | st.sampled_from(["", "x", "1e3", "-0", "3.0"]))
_GRAPH_JSON = st.one_of(
    st.fixed_dictionaries({"vertices": st.lists(_LABELS, max_size=5) | st.integers(),
                           "edges": st.lists(st.lists(_LABELS, max_size=3), max_size=6) | st.none()}),
    st.builds(lambda n, edges: {"vertices": list(range(1, n + 1)), "edges": edges},
              st.integers(10, 14), st.lists(st.tuples(st.integers(1, 14), st.integers(1, 14)), max_size=4)),
    st.dictionaries(st.sampled_from(["vertices", "edges", "tubes"]), _LABELS, max_size=2),
).map(json.dumps)
_NESTED_JSON = st.one_of(
    st.fixed_dictionaries({"tubes": st.lists(st.lists(_LABELS, max_size=4), max_size=4) | _LABELS}),
    st.lists(_LABELS, max_size=3),
    _LABELS,
).map(json.dumps) | _JUNK | st.sampled_from(['{"tubes": [[1], [1, 2]]}', '{"tubes": [[2, 3], [1, 2, 3]]}'])

# Every command that honours --cap, with the options it takes.  grav-dims is
# left out because it ignores the cap.  Hosts of 6 to 9 vertices are left out
# only for speed: the refusal is n > cap, which n >= 10 already meets.
_CAPPED = {
    "tubes": st.just([]), "fvector": st.just([]), "hpoly": st.just([]), "koszul-check": st.just([]),
    "axioms": st.just([]),
    "nested": st.sampled_from([[], ["--augmented"]]),
    "tree": _NESTED_JSON.map(lambda tau: [f"--tau={tau}"]),
    "reduce": _NESTED_JSON.map(lambda tau: [f"--tau={tau}"]),
    "induce": _NESTED_JSON.map(lambda omega: [f"--omega={omega}"]),
    "relations": st.sampled_from([["--system=grav"], ["--system=hyper"]]),
    "normal-count": st.sampled_from([[f"--system={s}"] for s in ("grcom", "grav", "hyper")]),
}


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(_CAPPED)).flatmap(lambda c: _CAPPED[c].map(lambda o: [c, *o])),
       graph=_SHORTHAND | _GRAPH_JSON | _JUNK, cap=st.none() | st.integers(-1, 9),
       env=st.none() | st.sampled_from(["", "abc", "9x", "1.5", " "]))
def test_junk_input_gets_an_exit_code_and_one_line_refusals(command, graph, cap, env):
    argv = [*command, f"--graph={graph}"] + ([] if cap is None else [f"--cap={cap}"])
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("GRAKIT_CAP", None)
        if env is not None:
            os.environ["GRAKIT_CAP"] = env
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("grakit: error: ") and err.getvalue().count("\n") == 1, argv
        assert err.getvalue().endswith("\n"), argv
