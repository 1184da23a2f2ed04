"""Acceptance criteria, one test per criterion.

Every check is exact integer equality (tolerance zero); bounds are pinned in
each test. Each test prints its own pass line (visible with pytest -s); the
per-criterion pass/fail also shows as the pytest -v line.
"""

import json

import pytest

from koszulkit.cli import main as cli_main
from koszulkit.corpus import build_fixture, module_killed_by, random_module, theorem_suite
from koszulkit.filtration import (
    FlagCertificate,
    LinearIdeal,
    all_linear_ideals_filtration,
    check_fitzgerald,
    check_reduction,
    minimal_multiplicity_flag,
    subsets_filtration,
    verify_groebner_flag,
    verify_koszul_filtration,
)
from koszulkit.koszul import (
    FlagData,
    check_factorization,
    koszul_verdict,
    poincare_hilbert_check,
    verdict_transfer_check,
)
from koszulkit.quotient import cyclic_module, hilbert_series, residue_field_module
from koszulkit.resolution import betti_table, regularity_verdict, resolve
from oracles import poly_to_dict, quotient_piece_dim


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_01_hilbert_correctness():
    expected_crv = [1, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1]
    for name in ("ci2", "crv26", "mm1", "nk3"):
        ring = build_fixture(name).ring
        h = hilbert_series(ring, 10)
        gens = [poly_to_dict(g) for g in ring.defining_generators]
        for d in range(11):
            assert h.coefficient(d) == quotient_piece_dim(
                gens, ring.nvars, d, ring.p
            ), (name, d)
        if name == "crv26":
            assert list(h.expansion) == expected_crv
    _report(1, "rational-form expansions equal brute enumeration to degree 10")


def test_criterion_02_koszul_positive_control():
    ring = build_fixture("ci2").ring
    k = residue_field_module(ring)
    table = betti_table(resolve(k, 5, 8))
    for (i, j), count in table.entries.items():
        assert i == j
    for i in range(6):
        assert table.beta(i, i) == i + 1
        assert table.total(i) == i + 1
    _report(2, "k over ci2 is diagonal with beta_{i,i} = i+1 for i <= 5")


def test_criterion_03_koszul_negative_control():
    ring = build_fixture("nk3").ring
    k = residue_field_module(ring)
    v = koszul_verdict(k, 5, 8)
    assert v.is_no and v.witness == (2, 3)
    ph = poincare_hilbert_check(k, 2, 8)
    assert not ph.holds and ph.fail_degree == 2
    _report(3, "k over nk3: verdict no at (2,3); series identity fails at 2")


def test_criterion_04_equivalence_suite():
    disagreements = []
    for name in ("ci2", "crv26", "mm1", "nk3", "fitz3"):
        ring = build_fixture(name).ring
        modules = [residue_field_module(ring)]
        modules.append(cyclic_module(ring, [ring.poly_ring.gen(0)]))
        modules.append(random_module(ring, 2, 2, 101))
        modules.append(random_module(ring, 1, 2, 202))
        for idx, m in enumerate(modules):
            v1 = koszul_verdict(m, 5, 8)
            v2 = koszul_verdict(m, 5, 8, "linear-part-acyclic")
            ph = poincare_hilbert_check(m, 5, 8)
            if not (v1.verdict == v2.verdict and ph.holds == v1.is_yes):
                disagreements.append((name, idx, v1.verdict, v2.verdict, ph.holds))
    assert disagreements == []
    _report(4, "betti-diagonal, linear-part and series verdicts agree on the corpus")


def test_criterion_05_filtration_soundness():
    crv = build_fixture("crv26").ring
    cert_crv = subsets_filtration(crv)
    assert verify_koszul_filtration(crv, cert_crv).valid
    ci2 = build_fixture("ci2").ring
    cert_ci2 = all_linear_ideals_filtration(ci2)
    assert len(cert_ci2.members) == 8
    assert verify_koszul_filtration(ci2, cert_ci2).valid
    for ring, cert in ((crv, cert_crv), (ci2, cert_ci2)):
        for member in cert.members:
            quotient = cyclic_module(ring, member.forms(ring))
            if quotient.is_zero():
                continue
            assert koszul_verdict(quotient, 4, 6).is_yes
    _report(5, "subsets (crv26) and all-linear (ci2, 8 members) filtrations verify")


def test_criterion_06_factorization_and_transfer():
    ci2 = build_fixture("ci2").ring
    flag = FlagCertificate(((1, 0), (0, 1)), (1, 2))
    assert verify_groebner_flag(ci2, flag).valid
    filtration = flag.as_filtration(ci2.nvars, ci2.p)
    fd = FlagData(filtration, (0, 1, 2), 1)
    k = residue_field_module(ci2)
    fr = check_factorization(k, fd, 5, 8)
    assert fr.holds
    # the factors are the two periodic linear resolutions
    assert [fr.factor_over_quotient.beta(i, i) for i in range(6)] == [1] * 6
    assert [fr.factor_of_quotient.beta(i, i) for i in range(6)] == [1] * 6
    assert [fr.lhs.beta(i, i) for i in range(6)] == [i + 1 for i in range(6)]
    tr = verdict_transfer_check(k, fd, 5, 8)
    assert tr.consistent
    _report(6, "bigraded factorization over the ci2 flag holds; transfer consistent")


def test_criterion_07_reg_suite_ci2():
    rep = theorem_suite("reg", "ci2", 1, (5, 8))
    failures = [a.id for a in rep.assertions if not a.passed]
    assert failures == []
    ids = [a.id for a in rep.assertions]
    assert sum(i.startswith("xM0-koszul") for i in ids) == 10
    assert sum(i.startswith("reg-le-1") for i in ids) == 10
    assert any(i.startswith("mM-1-linear") for i in ids)
    assert sum(i.startswith("quotient-koszul") for i in ids) == 5
    _report(7, "reg suite on ci2: zero failures")


def test_criterion_08_fitz_suites():
    for name in ("ci2", "fitz3"):
        ring = build_fixture(name).ring
        assert check_fitzgerald(ring).holds
        rep = theorem_suite("fitz", name, 1, (5, 8))
        failures = [a.id for a in rep.assertions if not a.passed]
        assert failures == [], (name, failures)
        ids = [a.id for a in rep.assertions]
        for part in ("annx-killed-koszul", "xM-1-linear", "reg-le-1"):
            assert sum(i.startswith(part) for i in ids) == 10, (name, part)
    _report(8, "fitz suites on ci2 and fitz3: zero failures")


def test_criterion_09_minimal_multiplicity_mm1():
    mm1 = build_fixture("mm1").ring
    j_rows = [(1, 0)]
    check = check_reduction(mm1, j_rows)
    assert check.reduction_ok and check.failing_degree is None
    assert check.regular_sequence_ok
    assert check.is_minimal_multiplicity
    assert (check.multiplicity, check.codim) == (2, 1)
    flag = minimal_multiplicity_flag(mm1, j_rows)
    assert flag.forms == ((1, 0), (0, 1))
    assert verify_groebner_flag(mm1, flag).valid
    j_ideal = LinearIdeal.from_vectors(j_rows, 2, mm1.p)
    for seed in range(5):
        m = module_killed_by(mm1, j_ideal, 1 + seed % 2, 2, seed)
        assert koszul_verdict(m, 5, 8).is_yes
    _report(9, "mm1 reduction, regular sequence, e = h+1 = 2, flag and modules")


def test_criterion_10_determinism(tmp_path, capsys):
    docs = {
        "ci2.txt": "ring char=5 vars=x,y\nideal x^2; y^2\n",
        "crv2.txt": "ring char=2 vars=x,y,z\nideal x^2; x*y; y*z; z^2\n",
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    matrix = [
        ["hilbert", str(tmp_path / "ci2.txt"), "--format", "json"],
        ["gb", str(tmp_path / "ci2.txt"), "--format", "json"],
        ["betti", str(tmp_path / "ci2.txt"), "--format", "json", "--imax", "4"],
        ["koszul", str(tmp_path / "ci2.txt"), "--format", "json"],
        ["reg", str(tmp_path / "crv2.txt"), "--format", "json"],
        ["poincare", str(tmp_path / "ci2.txt"), "--format", "json"],
        ["flag", "search", str(tmp_path / "crv2.txt"), "--format", "json", "--budget", "200"],
        ["filtration", "all-linear", str(tmp_path / "ci2.txt"), "--format", "json"],
        ["suite", "reg", "--fixture", "ci2", "--seed", "7", "--format", "json"],
    ]
    for argv in matrix:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2, argv
        json.loads(out1)
    _report(10, "byte-identical JSON across re-runs for the command matrix")
