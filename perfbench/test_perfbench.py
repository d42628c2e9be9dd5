"""Tests of the benchmark itself: every oracle must flag a planted wrong
result, the seeded inputs must repeat, and BENCHMARK.json must describe what
run.py prints.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402
from idag import (  # noqa: E402
    BOOL,
    INT,
    NAT,
    MatrixModel,
    default_sorting,
    equal_mod_theory,
    interpret,
    matrix,
    random_idag,
)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL, Tracer  # noqa: E402


def _first(wl, kind_prefix: str):
    return next(c for rnd in wl.rounds for c in rnd if c.kind.startswith(kind_prefix))


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_oracle_flags_planted_results():
    case = _first(workloads.roundtrip(3), "roundtrip.n8")
    good = case.op(NULL)
    assert case.check(good)
    relabelled = json.loads(good)
    relabelled["nodes"][0]["label"] = "z"
    reweighted = json.loads(good)
    reweighted["edges"][0]["w"] = 2
    dropped = json.loads(good)
    dropped["edges"].pop()
    for planted in (relabelled, reweighted, dropped):
        assert not case.check(json.dumps(planted, separators=(",", ":"), ensure_ascii=False))


def test_refinement_signature_ignores_node_names_only():
    d = random_idag(random.Random(5), 2, 2, 12, 0.3, NAT, labels=("a", "b"))
    g = oracles.graph_of_idag(d)
    rename = {nid: f"x{k}" for k, nid in enumerate(reversed(list(g.labels)))}

    def ren(v):
        return ("node", rename[v[1]]) if v[0] == "node" else v

    h = oracles.Graph(
        g.n_in, g.n_out, {rename[n]: lbl for n, lbl in g.labels.items()},
        tuple((ren(s), ren(t), w) for s, t, w in g.edges),
    )
    assert oracles.refinement_signature(g) == oracles.refinement_signature(h)
    s, t, w = g.edges[0]
    heavier = oracles.Graph(g.n_in, g.n_out, g.labels, ((s, t, w + 1),) + g.edges[1:])
    assert oracles.refinement_signature(g) != oracles.refinement_signature(heavier)


# ---------------------------------------------------------------------------
# matrix


@pytest.mark.parametrize("mode", [NAT, INT])
def test_path_sums_agree_with_interpret_on_small_values(mode):
    rng = random.Random(9)
    images = workloads.IMAGES[mode]
    for _ in range(10):
        d = random_idag(rng, 2, 3, 7, 0.4, mode, labels=workloads.LABELS)
        got = interpret(d, default_sorting(d), MatrixModel(mode, images)).entries
        assert [list(r) for r in got] == oracles.path_sums(oracles.graph_of_idag(d), images)


def test_matrix_oracle_flags_planted_results():
    case = _first(workloads.matrix(3), "matrix.n8.interpret")
    good = case.op(NULL)
    assert case.check(good)
    rows = [list(r) for r in good.entries]
    rows[0][0] += 1
    assert not case.check(matrix(rows, good.weights, good.n_in, good.n_out))
    wrapped = next(c for rnd in workloads.matrix(3).rounds for c in rnd if c.known_defect)
    assert not wrapped.check(wrapped.op(NULL)), "int64 wrap-around must count as a wrong answer"


def test_weighted_chain_straddles_int64():
    below, above = (oracles.path_sums(oracles.graph_of_idag(workloads._weighted_chain(n, NAT)), {})
                    for n in (39, 40))
    assert oracles.fits_int64(below) and not oracles.fits_int64(above)


# ---------------------------------------------------------------------------
# equality


@pytest.mark.parametrize("mode", ["bool", "nat", "int"])
def test_rewrites_have_the_verdict_they_claim(mode):
    rng = random.Random(4)
    ws = {"bool": BOOL, "nat": NAT, "int": INT}[mode]
    for size in (1, 3, 6):
        for equal in (True, False):
            lhs, rhs = workloads._anchored_pair(rng, size, mode, equal, depth=2)
            assert equal_mod_theory(lhs, rhs, ws).equal is equal
    for k in (2, 4):
        for equal in (True, False):
            lhs, rhs = workloads._kfold_pair(rng, k, mode, equal)
            assert equal_mod_theory(lhs, rhs, ws).equal is equal


def test_equality_oracle_flags_planted_verdicts():
    wl = workloads.equality(3)
    for case in wl.rounds[0][:4]:
        verdict = case.op(NULL)
        assert case.check(verdict)
        assert not case.check(not verdict)


def test_traced_equality_replay_matches_the_library():
    wl = workloads.equality(5)
    tracer = Tracer()
    for case in wl.rounds[0][22:30]:
        assert case.op(tracer) == case.op(NULL)
    assert tracer.counts["core.canonical_form.calls"] > 0
    self_s = tracer.self_times()
    assert self_s["core.canonical_form"] > 0 and self_s["models.evaluate_free"] > 0


# ---------------------------------------------------------------------------
# cli


def test_cli_oracle_flags_planted_results():
    case = _first(workloads.cli(3), "cli.normalize")
    code, out, err = case.op(NULL)
    assert case.check((code, out, err))
    assert not case.check((code, out.replace(b'"inputs"', b'"inputs" '), err))
    assert not case.check((2, out, err))
    overflow = _first(workloads.cli(3), "cli.decompose_overflow")
    assert overflow.known_defect
    assert not overflow.check((1, b"", b"OverflowError"))
    assert overflow.check((2, b"", b"error: weight too large"))


# ---------------------------------------------------------------------------
# the harness


def test_inputs_repeat_for_a_seed():
    a, b = workloads.roundtrip(7), workloads.roundtrip(7)
    assert [c.op.args for c in a.rounds[3]] == [c.op.args for c in b.rounds[3]]
    assert [c.op.args for c in a.rounds[3]] != [c.op.args for c in workloads.roundtrip(8).rounds[3]]


def test_wrong_answers_count_as_failures():
    tally = run.Tally()
    planted = workloads.Case("planted", lambda tr: 1, lambda result: result == 2)
    known = workloads.Case("known", lambda tr: 1, lambda result: False, known_defect=True)
    run.run_case(planted, NULL, tally, workloads.is_known_error)
    run.run_case(known, NULL, tally, workloads.is_known_error)
    assert tally.outcomes == [False, False]
    assert tally.unexpected == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert run.STRATA == workloads.STRATA


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
