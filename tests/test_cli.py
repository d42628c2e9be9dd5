import json
import os
import subprocess
import sys
from pathlib import Path

import idag
from idag.cli import main
from idag.core import concat
from idag.jsonio import idag_from_json, idag_to_json
from idag.selftest import sample_dag_2_3, sample_dag_3_1


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "idag", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_eq_does_not_import_selftest():
    code = (
        "import sys\n"
        "from idag.cli import main\n"
        "status = main(['eq', 'delta ; nabla', 'id(1)', '--mode', 'bool'])\n"
        "print(status, 'idag.selftest' in sys.modules)\n"
    )
    src = str(Path(idag.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split()[-2:] == ["0", "False"]


def test_eq_exit_codes(capsys):
    assert main(["eq", "delta ; nabla", "id(1)", "--mode", "bool"]) == 0
    assert main(["eq", "delta ; nabla", "id(1)", "--mode", "nat"]) == 1
    assert main(["eq", "nabla", "delta"]) == 2
    out = capsys.readouterr()
    assert "error:" in out.err


def test_eq_json_format(capsys):
    assert main(["eq", "delta ; nabla", "id(1)", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["equal"] is True
    assert sorted(obj) == ["equal", "lhs", "rhs"]


def test_eq_quotient_flag(capsys):
    lhs = "delta ; (node * id(1)) ; nabla"
    assert main(["eq", lhs, "node"]) == 1
    assert main(["eq", lhs, "node", "--quotient", "transitive"]) == 0
    assert main(["eq", lhs, "node", "--quotient", "transitive", "--mode", "nat"]) == 2


def test_normalize_round_trips(capsys):
    assert main(["normalize", "delta ; (anti * id(1)) ; nabla", "--mode", "int"]) == 0
    text = capsys.readouterr().out.strip()
    d = idag_from_json(text)
    assert (d.n_in, d.n_out) == (1, 1)
    assert not d.edges
    assert idag_to_json(d) == text


def test_parse_error_exit(capsys):
    assert main(["normalize", "delta ;;"]) == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_eq(capsys):
    depth = 1000
    assert main(["eq", "(" * depth + "id(1)" + ")" * depth, "id(1)"]) == 0


def test_normalize_many_interchangeable_copies(capsys):
    for k in (9, 12):
        text = " * ".join(["(eta ; node ; eps)"] * k)
        for mode in ("bool", "nat"):
            assert main(["normalize", text, "--mode", mode]) == 0
            d = idag_from_json(capsys.readouterr().out)
            assert (len(d.nodes), len(d.edges)) == (k, 0)


def test_anti_needs_int_mode(capsys):
    assert main(["normalize", "anti"]) == 2
    assert main(["normalize", "anti", "--mode", "int"]) == 0


def test_compose_and_tensor(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(idag_to_json(sample_dag_2_3()), encoding="utf-8")
    right.write_text(idag_to_json(sample_dag_3_1()), encoding="utf-8")

    assert main(["compose", f"@{left}", f"@{right}"]) == 0
    got = idag_from_json(capsys.readouterr().out.strip())
    assert got == concat(sample_dag_3_1(), sample_dag_2_3())

    assert main(["compose", f"@{right}", f"@{left}"]) == 2  # interfaces clash

    assert main(["tensor", f"@{left}", f"@{left}"]) == 0
    side = idag_from_json(capsys.readouterr().out.strip())
    assert (side.n_in, side.n_out) == (4, 6)


def test_decompose_sorting_flags(tmp_path, capsys):
    right = tmp_path / "right.json"
    right.write_text(idag_to_json(sample_dag_3_1()), encoding="utf-8")

    assert main(["decompose", f"@{right}", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sorting"] == ["a", "b", "c", "d"]

    assert main(["decompose", f"@{right}", "--sorting", "2", "--format", "json"]) == 0
    obj2 = json.loads(capsys.readouterr().out)
    assert obj2["sorting"] == ["a", "c", "d", "b"]

    assert main(["decompose", f"@{right}", "--sorting", "index:4", "--format", "json"]) == 0
    obj3 = json.loads(capsys.readouterr().out)
    assert obj3["sorting"] == ["c", "a", "d", "b"]

    assert main(["decompose", f"@{right}", "--sorting", "5"]) == 2
    assert main(["decompose", f"@{right}", "--sorting", "nonsense"]) == 2


def test_closure_and_prune(capsys):
    wire = '{"mode":"bool","inputs":1,"outputs":1,"nodes":[],"edges":[{"src":{"in":0},"dst":{"out":0}}]}'
    assert main(["closure", wire]) == 0
    assert capsys.readouterr().out.strip() == wire

    dangling = '{"mode":"bool","inputs":1,"outputs":1,"nodes":[{"id":"p"}],"edges":[{"src":{"in":0},"dst":{"out":0}}]}'
    assert main(["prune", dangling]) == 0
    assert capsys.readouterr().out.strip() == wire


def test_dot_layout(capsys):
    assert main(["dot", idag_to_json(sample_dag_2_3())]) == 0
    text = capsys.readouterr().out
    assert text.count("shape=point") == 5  # 2 inputs + 3 outputs
    assert "rank=source" in text and "rank=sink" in text
    assert text.count("shape=circle") == 2
    visible = [
        ln for ln in text.splitlines() if "->" in ln and "style=invis" not in ln
    ]
    assert len(visible) == 6


def test_random_determinism(capsys):
    args = ["random", "2", "2", "4", "0.5", "--seed", "11", "--mode", "int"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    idag_from_json(first)

    assert main(["random", "1", "1", "1", "1.5"]) == 2


def test_random_negative_node_count_is_a_clean_error(capsys):
    assert main(["random", "2", "2", "-3", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: negative node count -3\n"


def test_entry_point_subprocess():
    r = run_cli("eq", "sym(1,1) ; sym(1,1)", "id(2)")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("equal")


def test_import_does_not_load_numpy():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, idag; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_decompose_huge_weight_is_a_clean_error():
    d = {
        "mode": "nat", "inputs": 1, "outputs": 1, "nodes": [{"id": "p"}],
        "edges": [{"src": {"in": 0}, "dst": {"node": "p"}, "w": 10**20},
                  {"src": {"node": "p"}, "dst": {"out": 0}}],
    }
    r = run_cli("decompose", json.dumps(d), "--mode", "nat")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_decompose_unprintable_label_is_a_clean_error(capsys):
    # a valid idag whose label has no expression syntax: an error, not a
    # traceback, and exit 2, not the exit 1 that means "unequal"
    d = {
        "mode": "bool", "inputs": 1, "outputs": 1, "nodes": [{"id": "p", "label": "a b"}],
        "edges": [{"src": {"in": 0}, "dst": {"node": "p"}}, {"src": {"node": "p"}, "dst": {"out": 0}}],
    }
    assert main(["decompose", json.dumps(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'a b'" in err


def test_stdin_input():
    r = subprocess.run(
        [sys.executable, "-m", "idag", "closure", "-"],
        input='{"mode":"bool","inputs":0,"outputs":0,"nodes":[],"edges":[]}',
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == '{"mode":"bool","inputs":0,"outputs":0,"nodes":[],"edges":[]}'


def test_missing_file_is_a_clean_error(capsys):
    assert main(["closure", "@/definitely/not/here.json"]) == 2
    assert "error:" in capsys.readouterr().err
