"""Fixtures, random module generation, theorem suites."""

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from koszulkit import corpus
from koszulkit.arith import polynomial_ring
from koszulkit.corpus import (
    FIXTURE_NAMES,
    Fixture,
    build_fixture,
    module_killed_by,
    random_module,
    theorem_suite,
)
from koszulkit.filtration import BudgetExceededError, LinearIdeal
from koszulkit.koszul import KoszulVerdict
from koszulkit.resolution import RegularityVerdict, resolve
from koszulkit.quotient import hilbert_series, make_ring


def test_fixture_catalog():
    for name in FIXTURE_NAMES:
        f = build_fixture(name)
        assert f.name == name
        assert f.note
    with pytest.raises(ValueError, match="unknown fixture"):
        build_fixture("nope")


def test_crv26_expansion():
    f = build_fixture("crv26")
    h = hilbert_series(f.ring, 6)
    assert list(h.expansion) == [1, 3, 2, 1, 1, 1, 1]


def test_ci2_tags():
    f = build_fixture("ci2")
    assert f.tags["koszul"] and f.tags["fitzgerald"]
    assert f.tags["conca"] == (1, 0)


def test_nk3_tag():
    assert build_fixture("nk3").tags["non_koszul"]


def test_random_module_deterministic():
    ring = build_fixture("ci2").ring
    m1 = random_module(ring, 2, 2, 17)
    m2 = random_module(ring, 2, 2, 17)
    assert m1.shifts == m2.shifts
    assert [
        [c.terms for c in col.components] for col in m1.columns
    ] == [[c.terms for c in col.components] for col in m2.columns]
    m3 = random_module(ring, 2, 2, 18)
    assert (
        [[c.terms for c in col.components] for col in m1.columns]
        != [[c.terms for c in col.components] for col in m3.columns]
        or m1.shifts != m3.shifts
    )


def test_random_module_rank_validation():
    ring = build_fixture("ci2").ring
    with pytest.raises(ValueError):
        random_module(ring, 0, 2, 1)


def test_random_modules_feed_resolve():
    # fuzz invariant: every sampled presentation resolves without errors
    ring = build_fixture("ci2").ring
    for seed in range(50):
        m = random_module(ring, 1 + seed % 3, 2, seed)
        res = resolve(m, 3, 5)
        assert len(res.steps) == 3
        assert m.generation_degrees() in ((), (0,))


def test_module_killed_by_kills():
    ring = build_fixture("ci2").ring
    x_ideal = LinearIdeal.from_vectors([(1, 0)], 2, 5)
    for seed in range(5):
        m = module_killed_by(ring, x_ideal, 2, 2, seed)
        if m.is_zero():
            continue
        assert m.annihilated_by(ring.linear_form((1, 0)))


def test_suite_reg_ci2():
    rep = theorem_suite("reg", "ci2", 1)
    assert rep.passed
    assert rep.suite == "reg" and rep.fixture == "ci2"
    ids = [a.id for a in rep.assertions]
    assert sum(i.startswith("xM0-koszul") for i in ids) == 10
    assert sum(i.startswith("reg-le-1") for i in ids) == 10
    assert sum(i.startswith("mM-1-linear") for i in ids) == 3
    assert sum(i.startswith("quotient-koszul") for i in ids) == 5


def test_suite_minmult_mm1():
    rep = theorem_suite("minmult", "mm1", 1)
    assert rep.passed
    ids = [a.id for a in rep.assertions]
    assert "reduction-clause" in ids and "flag-valid" in ids
    assert sum(i.startswith("JM0-koszul") for i in ids) == 5


def test_suite_fitz_both_fixtures():
    for fixture in ("ci2", "fitz3"):
        rep = theorem_suite("fitz", fixture, 1)
        assert rep.passed, [a.id for a in rep.assertions if not a.passed]
        ids = [a.id for a in rep.assertions]
        assert sum(i.startswith("annx-killed-koszul") for i in ids) == 10
        assert sum(i.startswith("xM-1-linear") for i in ids) == 10
        assert sum(i.startswith("reg-le-1") for i in ids) == 10


def test_suite_fitz_checks_its_budget_before_listing_lines():
    # the 999,984 lines of F_999983^2 exceed the all-linear budget; listing
    # them for the suite's random draws first took about 90 MB
    s, (x, y) = polynomial_ring(999983, "xy")
    fixture = Fixture("big", make_ring(s, [x * x, x * y]), {"fitzgerald": True}, "")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as info:
            theorem_suite("fitz", fixture, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "999984 projective forms exceed the budget of 5000"
    assert peak < 10 * 2**20, peak


def test_suite_hypothesis_mismatch():
    with pytest.raises(ValueError, match="no Conca-generator tag"):
        theorem_suite("reg", "nk3", 1)
    with pytest.raises(ValueError, match="no Fitzgerald tag"):
        theorem_suite("fitz", "nk3", 1)
    with pytest.raises(ValueError, match="unknown suite"):
        theorem_suite("bogus", "ci2", 1)


@pytest.mark.parametrize(
    "suite_id,message",
    [
        ("reg", "fixture 'nk3' carries no Conca-generator tag; "
                "the reg suite hypothesis does not apply"),
        ("minmult", "fixture 'nk3' carries no minimal-multiplicity tag; "
                    "the minmult suite hypothesis does not apply"),
        ("fitz", "fixture 'nk3' carries no Fitzgerald tag; "
                 "the fitz suite hypothesis does not apply"),
    ],
)
def test_suite_tag_error_messages(suite_id, message):
    with pytest.raises(ValueError) as info:
        theorem_suite(suite_id, "nk3", 1)
    assert str(info.value) == message


def test_suite_report_json_schema():
    rep = theorem_suite("minmult", "mm1", 3)
    doc = rep.to_json()
    assert set(doc) == {"suite", "fixture", "seed", "bounds", "assertions"}
    assert doc["bounds"] == {"imax": 5, "dmax": 8}
    for a in doc["assertions"]:
        assert set(a) <= {"id", "pass", "witness"}


def test_suite_reproducible():
    a = theorem_suite("reg", "ci2", 5).to_json()
    b = theorem_suite("reg", "ci2", 5).to_json()
    assert a == b


# ------------------------------------------------------- recorded reports
#
# tests/golden/suites.json holds the `scripts/run_suites.py --json` lines at
# suite seeds 2 and 3 (seed 1 is the benchmark's fingerprint), and the five
# reports with every Koszul verdict "no" and every regularity 2, which pin
# the witness of each failing claim. Regenerate it only when an output is
# shown to be wrong:
#
#     PYTHONPATH=src python tests/test_corpus.py

SUITE_GOLDEN = Path(__file__).parent / "golden" / "suites.json"
SUITE_RUNS = (
    ("reg", "ci2"),
    ("reg", "fitz3"),
    ("minmult", "mm1"),
    ("fitz", "ci2"),
    ("fitz", "fitz3"),
)


def _suite_lines(seed):
    return [
        json.dumps(theorem_suite(suite_id, fixture, seed).to_json(), sort_keys=True)
        for suite_id, fixture in SUITE_RUNS
    ]


def _failing_verdict(module, i_max, d_max, method="betti-diagonal"):
    return KoszulVerdict("no", method, i_max, d_max, witness=(1, 2))


def _failing_regularity(table):
    return RegularityVerdict("UpToBounds", 2, table.i_max, table.d_max)


def _failing_lines(setattr_):
    for name in FIXTURE_NAMES:
        build_fixture(name)  # tags are verified with the true verdicts
    setattr_(corpus, "koszul_verdict", _failing_verdict)
    setattr_(corpus, "regularity_verdict", _failing_regularity)
    return _suite_lines(1)


def record_suites():
    script = Path(__file__).parent.parent / "scripts" / "run_suites.py"
    seeds = {}
    for seed in (2, 3):
        out = subprocess.run(
            [sys.executable, str(script), "--json", "--seed", str(seed)],
            capture_output=True, text=True, check=False,
        ).stdout
        seeds[str(seed)] = out.splitlines()
    with pytest.MonkeyPatch.context() as mp:
        failing = _failing_lines(mp.setattr)
    golden = {"seeds": seeds, "failing": failing}
    SUITE_GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("seed", [2, 3])
def test_suites_match_recorded_reports(seed):
    golden = json.loads(SUITE_GOLDEN.read_text())
    assert _suite_lines(seed) == golden["seeds"][str(seed)]


def test_failing_witnesses_match_recorded_reports(monkeypatch):
    golden = json.loads(SUITE_GOLDEN.read_text())
    assert _failing_lines(monkeypatch.setattr) == golden["failing"]


if __name__ == "__main__":
    record_suites()
