"""Acceptance gate: ten criteria, one visible pass/fail line each.

Each criterion reuses the suites in idag.selftest at full scale, with the time
budgets asserted here. Run with plain pytest; the lines print through the
capture so the transcript always shows the verdicts.
"""

import subprocess
import sys
import time

from idag import selftest as st
from idag.algebra import concat
from idag.core import canonical_form
from idag.jsonio import idag_to_json


def _report(capsys, num, name, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name} failed{tail}"


def test_criterion_01_figure_reproduction(capsys):
    left = st.sample_dag_2_3()
    right = st.sample_dag_3_1()
    want = st.sample_composite_2_1()

    concat(right, left)  # warm
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        comp = concat(right, left)
        best = min(best, time.perf_counter() - t0)
    ok = (
        dict(comp.edges) == dict(want.edges)
        and set(comp.node_ids) == {"k", "l", "a", "b", "c", "d"}
        and len(comp.edges) == 12
        and idag_to_json(canonical_form(comp)) == idag_to_json(canonical_form(want))
        and best < 0.001
    )
    _report(capsys, 1, "figure reproduction", ok, f"concat best of 5: {best * 1e6:.0f} us")


def test_criterion_02_axiom_suite(capsys):
    res = st.suite_axioms()
    _report(capsys, 2, "axiom suite 16/16", res.ok, "; ".join(res.failures[:2]))


def test_criterion_03_sort_invariance(capsys):
    t0 = time.perf_counter()
    res = st.suite_sort_invariance(seed=3, n_idags=1000, max_sortings=20)
    dt = time.perf_counter() - t0
    _report(capsys, 3, "sort invariance 1000x20", res.ok and dt < 60, f"{dt:.1f}s / 60s")


def test_criterion_04_transpositions(capsys):
    t0 = time.perf_counter()
    res = st.suite_transpositions(seed=4, n_cases=500)
    dt = time.perf_counter() - t0
    _report(capsys, 4, "transposition identities x500", res.ok and dt < 30, f"{dt:.1f}s / 30s")


def test_criterion_05_compositionality(capsys):
    t0 = time.perf_counter()
    res = st.suite_compositionality(seed=5, n_pairs=500)
    dt = time.perf_counter() - t0
    _report(capsys, 5, "compositionality 500+500", res.ok and dt < 30, f"{dt:.1f}s / 30s")


def test_criterion_06_freeness_round_trip(capsys):
    res = st.suite_freeness_roundtrip(seed=6, n_idags=1000)
    _report(capsys, 6, "freeness round-trip x1000", res.ok)


def test_criterion_07_isomorphism_oracle(capsys):
    t0 = time.perf_counter()
    res = st.suite_isomorphism(seed=7, n_random=200, n_copies=40)
    dt = time.perf_counter() - t0
    _report(
        capsys, 7, "isomorphism oracle all pairs", res.ok and dt < 60,
        f"{res.cases} pairs, {dt:.1f}s / 60s",
    )


def test_criterion_08_matrix_prop_agreement(capsys):
    res = st.suite_matrix_agreement(seed=8, n_pairs=500)
    _report(capsys, 8, "matrix agreement + encoding x500", res.ok)


def test_criterion_09_conclusion_variants(capsys):
    res = st.suite_quotients(seed=9, n_idags=200)
    _report(capsys, 9, "closure / antipode / prune variants", res.ok)


def test_criterion_10_cli_contract(capsys):
    t0 = time.perf_counter()
    selftest = subprocess.run(
        [sys.executable, "-m", "idag", "selftest"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    dt = time.perf_counter() - t0

    def eq_code(*args):
        return subprocess.run(
            [sys.executable, "-m", "idag", "eq", *args],
            capture_output=True,
            text=True,
            timeout=120,
        ).returncode

    codes_ok = (
        eq_code("delta ; nabla", "id(1)", "--mode", "bool") == 0
        and eq_code("delta ; nabla", "id(1)", "--mode", "nat") == 1
        and eq_code("nabla", "delta") == 2
    )
    roundtrip = st.suite_parse_roundtrip(seed=10, n_cases=1000)
    ok = selftest.returncode == 0 and dt < 60 and codes_ok and roundtrip.ok
    _report(
        capsys, 10, "cli contract", ok,
        f"selftest exit {selftest.returncode} in {dt:.1f}s; eq codes {'ok' if codes_ok else 'bad'}",
    )
