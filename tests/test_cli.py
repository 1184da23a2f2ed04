"""CLI: exit codes, golden output, JSON determinism, report embedding."""

import json
from pathlib import Path

import pytest

from koszulkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

CI2 = "ring char=5 vars=x,y\nideal x^2; y^2\n"
NK3 = "ring char=5 vars=x\nideal x^3\n"
CRV2 = "ring char=2 vars=x,y,z\nideal x^2; x*y; y*z; z^2\n"
MM1 = "ring char=32003 vars=x,y\nideal y^2\n"


@pytest.fixture
def write_doc(tmp_path):
    def _write(text, name="doc.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_koszul_yes_exit_0(write_doc, capsys):
    code, out, _ = run(capsys, ["koszul", write_doc(CI2), "--imax", "5", "--dmax", "8"])
    assert code == 0
    assert "yes-up-to-bounds" in out


def test_koszul_no_exit_1_with_witness(write_doc, capsys):
    code, out, _ = run(capsys, ["koszul", write_doc(NK3)])
    assert code == 1
    assert "witness (2, 3)" in out


def test_koszul_inconclusive_exit_2(write_doc, capsys):
    code, out, _ = run(
        capsys,
        ["koszul", write_doc(CI2), "--imax", "1", "--method", "linear-part-acyclic"],
    )
    assert code == 2


def test_parse_error_exit_3(write_doc, capsys):
    code, _, err = run(capsys, ["koszul", write_doc("ring char=5 vars=x,y\nideal x^2 + y\n")])
    assert code == 3
    assert "non-homogeneous generator at 2:7" in err


@pytest.mark.parametrize("char", ["2305843009213693951", "4294967311"])
def test_char_out_of_range_exit_3(write_doc, capsys, char):
    # the range is checked before primality, so 2^61 - 1 fails at once too
    code, _, err = run(capsys, ["betti", write_doc(f"ring char={char} vars=x,y\nideal x^2\n")])
    assert code == 3
    assert f"characteristic {char} out of range [2, 2^31) at 1:11" in err


def test_unknown_module_exit_3(write_doc, capsys):
    code, _, err = run(capsys, ["betti", write_doc(CI2), "--module", "Q"])
    assert code == 3


def test_golden_betti_byte_equal(write_doc, capsys):
    code, out, _ = run(capsys, ["betti", write_doc(CI2), "--imax", "5", "--dmax", "8"])
    assert code == 0
    assert out == (GOLDEN / "ci2_k_betti.txt").read_text()


def test_empty_table_placeholder(write_doc, capsys):
    doc = CI2 + "module name=Z shifts=0\n[ 1 ]\n"
    code, out, _ = run(capsys, ["betti", write_doc(doc), "--module", "Z"])
    assert code == 0
    assert out.splitlines()[-1] == "0"


def test_json_determinism(write_doc, capsys):
    path = write_doc(CI2)
    argv = ["koszul", path, "--format", "json", "--imax", "4", "--dmax", "6"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["p"] == 5
    assert doc["bounds"] == {"dmax": 6, "imax": 4}
    assert "seed" in doc
    assert set(doc["koszul"]) == {"verdict", "method", "bounds"}


def test_reports_embed_p_bounds_seed(write_doc, capsys):
    for argv in (
        ["hilbert", write_doc(CI2), "--format", "json"],
        ["gb", write_doc(CI2), "--format", "json"],
        ["reg", write_doc(CI2), "--format", "json"],
    ):
        code, out, _ = run(capsys, argv)
        doc = json.loads(out)
        assert {"p", "bounds", "seed", "command"} <= set(doc)


def test_hilbert_command(write_doc, capsys):
    code, out, _ = run(capsys, ["hilbert", write_doc(CRV2), "--dmax", "6"])
    assert code == 0
    assert "[1, 3, 2, 1, 1, 1, 1]" in out


def test_gb_command(write_doc, capsys):
    code, out, _ = run(capsys, ["gb", write_doc(NK3)])
    assert code == 0
    assert "x^3" in out


def test_colon_command(write_doc, capsys):
    code, out, _ = run(capsys, ["colon", write_doc(CRV2), "x", "y"])
    assert code == 0
    lines = out.splitlines()[1:]
    assert sorted(lines) == ["x", "z"]


def test_resolve_command(write_doc, capsys):
    code, out, _ = run(capsys, ["resolve", write_doc(NK3), "--imax", "5"])
    assert code == 0
    assert "F_2: shifts [3]" in out


def test_reg_exit_codes(write_doc, capsys):
    code, out, _ = run(capsys, ["reg", write_doc(CI2)])
    assert code == 0 and "UpToBounds(0)" in out
    code2, out2, _ = run(capsys, ["reg", write_doc(NK3)])
    assert code2 == 2 and "AtLeast(2)" in out2


def test_linpart_command(write_doc, capsys):
    code, out, _ = run(capsys, ["linpart", write_doc(CI2)])
    assert code == 0 and "acyclic within bounds" in out
    code2, out2, _ = run(capsys, ["linpart", write_doc(NK3)])
    assert code2 == 1 and "nonzero homology" in out2


@pytest.mark.parametrize("doc", [NK3, CI2], ids=["nk3", "ci2"])
def test_linpart_below_imax_2_is_inconclusive(write_doc, capsys, doc):
    # with imax 1 no homological degree 1 <= i < imax is checked, so neither
    # the non-Koszul nk3 nor ci2 may read acyclic; `koszul` agrees
    path = write_doc(doc)
    code, out, _ = run(capsys, ["linpart", path, "--imax", "1"])
    assert code == 2 and "inconclusive" in out and "acyclic" not in out
    code, out, _ = run(capsys, ["linpart", path, "--imax", "1", "--format", "json"])
    assert code == 2
    assert json.loads(out)["linear_part_homology"] == {"nonzero": {}, "acyclic_in_window": None}
    code, out, _ = run(capsys, ["koszul", path, "--imax", "1", "--method", "linear-part-acyclic"])
    assert code == 2 and "inconclusive" in out


def test_poincare_command(write_doc, capsys):
    code, out, _ = run(capsys, ["poincare", write_doc(CI2), "--imax", "5"])
    assert code == 0 and "holds" in out
    code2, out2, _ = run(capsys, ["poincare", write_doc(NK3), "--imax", "2"])
    assert code2 == 1 and "fails at degree 2" in out2


def test_poincare_stays_inside_the_window(write_doc, capsys):
    # with d_max = 3 only the degrees e <= 3 of the 1-linear strand are in
    # the window; degree 4 must not be compared against a truncated table
    argv = ["poincare", write_doc(CI2), "--imax", "5", "--dmax", "3", "--format", "json"]
    code, out, _ = run(capsys, argv)
    ph = json.loads(out)["poincare_hilbert"]
    assert code == 0
    assert ph == {
        "holds": True, "checked_to": 3, "fail_degree": None,
        "lhs": [1, 2, 3, 4], "rhs": [1, 2, 3, 4],
    }


def test_poincare_of_a_module_generated_in_a_negative_degree(write_doc, capsys):
    # the series are compared through their numerators, so a generation
    # degree below 0 needs no expansion at negative degrees
    doc = write_doc(CI2 + "module name=N shifts=-2,-2\n[ x, y ]\n[ 0, x ]\n")
    argv = ["poincare", doc, "--module", "N", "--imax", "3", "--dmax", "3", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["poincare_hilbert"] == {
        "holds": True, "checked_to": 3, "fail_degree": None,
        "lhs": [2, 2, 2, 2], "rhs": [2, 2, 2, 2],
    }


def test_reg_is_not_exact_when_the_presentation_leaves_the_window(write_doc, capsys):
    # the relation x*y has degree 2: at --dmax 1 step 1 is cut, so F_0
    # alone must not read as a free module
    doc = write_doc(CI2 + "module name=Q shifts=0\n[ x*y ]\n")
    for dmax, want in (("1", "AtLeast(0)"), ("2", "AtLeast(1)")):
        code, out, _ = run(capsys, ["reg", doc, "--module", "Q", "--imax", "3", "--dmax", dmax])
        assert code == 2 and out.splitlines()[-1] == want
    free = write_doc(CI2 + "module name=F shifts=0,1\n[ ]\n[ ]\n", "free.txt")
    code, out, _ = run(capsys, ["reg", free, "--module", "F", "--imax", "3", "--dmax", "1"])
    assert code == 0 and out.splitlines()[-1] == "Exact(1)"


def test_reg_cut_bound_ignores_a_redundant_dropped_column(write_doc, capsys):
    # x*y = y * x is redundant: at --dmax 1 it is dropped with step 1 cut,
    # and the module is R/(x) with a linear resolution, so the lowest
    # dropped column degree minus 1 (here 1) is no lower bound on reg
    doc = write_doc(CI2 + "module name=Q shifts=0\n[ x, x*y ]\n")
    for dmax, code_want, want in (("1", 2, "AtLeast(0)"), ("6", 0, "UpToBounds(0)")):
        code, out, _ = run(capsys, ["reg", doc, "--module", "Q", "--imax", "4", "--dmax", dmax])
        assert code == code_want and out.splitlines()[-1] == want
    code, out, _ = run(capsys, ["betti", doc, "--module", "Q", "--imax", "4", "--dmax", "6"])
    assert code == 0 and out.splitlines()[1:] == [
        "        0 1 2 3 4", "     0: 1 1 1 1 1", " total: 1 1 1 1 1",
    ]


@pytest.mark.parametrize("imax", ["1", "5"])
def test_linpart_of_the_zero_module_is_acyclic(write_doc, capsys, imax):
    # the zero module resolves by the zero complex; `koszul` agrees
    path = write_doc(CI2 + "module name=Z shifts=\n")
    code, out, _ = run(capsys, ["linpart", path, "--module", "Z", "--imax", imax])
    assert code == 0 and out.splitlines()[-1] == "acyclic within bounds"
    argv = ["linpart", path, "--module", "Z", "--imax", imax, "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["linear_part_homology"] == {"nonzero": {}, "acyclic_in_window": True}
    argv = ["koszul", path, "--module", "Z", "--imax", imax, "--method", "linear-part-acyclic"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and "yes-up-to-bounds" in out


def test_linpart_scans_from_the_lowest_generator_degree(write_doc, capsys):
    # coker([x*y]) at shift -3 has H_1 of its linear part at degree -1, below
    # 0; `linpart` reads the same window as `koszul`
    path = write_doc(CI2 + "module name=M shifts=-3\n[ x*y ]\n")
    argv = ["linpart", path, "--module", "M", "--imax", "4", "--dmax", "4"]
    code, out, _ = run(capsys, argv)
    assert code == 1 and out.splitlines()[-1] == "nonzero homology: {'1,-1': 1}"
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out)["linear_part_homology"] == {
        "nonzero": {"1,-1": 1}, "acyclic_in_window": False,
    }
    code, out, _ = run(capsys, ["koszul", *argv[1:], "--method", "linear-part-acyclic"])
    assert code == 1 and "witness (1, -1)" in out


def test_resolve_of_the_zero_module_lists_every_step(write_doc, capsys):
    # the zero module resolves like a free module of rank 0
    path = write_doc(CI2 + "module name=Z shifts=\n")
    code, out, _ = run(capsys, ["resolve", path, "--module", "Z", "--imax", "2"])
    assert code == 0
    assert out.splitlines()[1:] == ["F_0: shifts []", "F_1: shifts []", "F_2: shifts []"]


# x^(10^11): a dense list of that length would take about 800 GB, so a
# failure to bound it shows at once, with nothing allocated
HUGE = 99999999999


@pytest.mark.parametrize(
    "text, module, degree",
    [
        (f"ring char=5 vars=x,y\nideal x^{HUGE}\n", None, HUGE),
        # the shift spread plus the degrees of the minimal generators, x, y^2
        # at the first position and x^2, y^2 at the second
        (CI2 + f"module name=M shifts=0,{HUGE}\n[ x ]\n[ 0 ]\n", "M", HUGE + 7),
    ],
    ids=["ideal", "shift-spread"],
)
def test_hilbert_numerator_beyond_the_dense_bound_exits_3(write_doc, capsys, text, module, degree):
    path = write_doc(text)
    argv = ["hilbert", path] + (["--module", module] if module else [])
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith(f"error: the Hilbert series numerator may reach degree {degree},")
    code, _, _ = run(capsys, ["betti", path] + (["--module", module] if module else []))
    assert code == 0


def test_hilbert_of_a_module_generated_far_up_expands_to_zeros(write_doc, capsys):
    # the expansion lists degrees 0..dmax only, so it is padded to that length
    path = write_doc(CI2 + f"module name=M shifts={HUGE}\n[ x ]\n")
    code, out, _ = run(capsys, ["hilbert", path, "--module", "M", "--dmax", "3", "--format", "json"])
    assert code == 0
    h = json.loads(out)["hilbert"]
    assert (h["expansion"], h["numerator"], h["offset"]) == ([0, 0, 0, 0], [1, -1, -1, 1], HUGE)
    code, _, _ = run(capsys, ["betti", path, "--module", "M"])
    assert code == 0


def test_hilbert_of_a_module_generated_far_below_0_expands_at_once(write_doc, capsys):
    # each degree of the expansion is one binomial sum over the numerator,
    # so nothing walks up from the offset
    path = write_doc(CI2 + f"module name=M shifts=-{HUGE}\n[ x ]\n")
    code, out, _ = run(capsys, ["hilbert", path, "--module", "M", "--dmax", "3", "--format", "json"])
    assert code == 0
    h = json.loads(out)["hilbert"]
    assert (h["expansion"], h["numerator"], h["offset"]) == ([0, 0, 0, 0], [1, -1, -1, 1], -HUGE)


def test_a_resolution_window_beyond_the_dense_bound_exits_3(write_doc, capsys):
    # the ranks hold one entry per degree from the lowest shift to dmax, so
    # the width of that window is checked before any is made
    path = write_doc(CI2 + f"module name=M shifts=-{HUGE}\n[ x ]\n")
    for command in ("betti", "resolve", "linpart"):
        code, out, err = run(capsys, [command, path, "--module", "M"])
        assert code == 3 and out == ""
        assert err.startswith(f"error: the degree window -{HUGE}..8 is wider than the limit"), err


def test_duplicate_variable_names_exit_3_at_their_column(write_doc, capsys):
    code, _, err = run(capsys, ["hilbert", write_doc("ring char=5 vars=x,x\n")])
    assert code == 3
    assert "duplicate variable names at 1:18" in err


@pytest.mark.parametrize("argv", [
    ["betti", "DOC", "--imax", "abc"],
    ["bogus"],
    ["betti"],
    ["flag", "search", "DOC", "--budget", "-1"],
])
def test_usage_errors_exit_3(write_doc, capsys, argv):
    argv = [write_doc(CRV2) if a == "DOC" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("usage: koszulkit") and "error: " in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and out.startswith("usage: koszulkit")


def test_filtration_subsets_and_verify(write_doc, capsys, tmp_path):
    code, out, _ = run(
        capsys, ["filtration", "subsets", write_doc(CRV2), "--format", "json"]
    )
    assert code == 0
    cert = json.loads(out)["certificate"]
    doc_text = CRV2 + "cert filtration " + json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"
    code2, out2, _ = run(capsys, ["filtration", "verify", write_doc(doc_text, "v.txt")])
    assert code2 == 0 and "valid" in out2


def test_filtration_all_linear(write_doc, capsys):
    code, out, _ = run(capsys, ["filtration", "all-linear", write_doc(CI2)])
    assert code == 0 and "8 members" in out
    code2, _, err2 = run(capsys, ["filtration", "all-linear", write_doc(NK3)])
    assert code2 == 3  # precondition: not a Fitzgerald ring


def test_filtration_all_linear_honours_the_budget(write_doc, capsys):
    # the Fitzgerald precondition is checked within --budget: 5,113 forms at
    # p = 71 pass a budget of 20,000 but not the default 1,000, and 13 forms
    # at p = 3 fail a budget of 10
    fitz71 = "ring char=71 vars=x,y,z\nideal x^2; y^2; z^2; x*y\n"
    code, out, _ = run(capsys, ["filtration", "all-linear", write_doc(fitz71), "--budget", "20000"])
    assert code == 0 and "10228 members" in out
    code2, out2, err2 = run(capsys, ["filtration", "all-linear", write_doc(fitz71)])
    assert code2 == 2 and out2 == "" and "5113 projective forms exceed the budget of 1000" in err2
    fitz3 = "ring char=3 vars=x,y,z\nideal x^2; y^2; z^2; x*y\n"
    code3, _, err3 = run(capsys, ["filtration", "all-linear", write_doc(fitz3), "--budget", "10"])
    assert code3 == 2 and "13 projective forms exceed the budget of 10" in err3


def test_flag_search_exit_codes(write_doc, capsys):
    code, out, _ = run(capsys, ["flag", "search", write_doc(CRV2), "--budget", "200"])
    assert code == 1
    assert "exhausted" in out
    code2, out2, _ = run(capsys, ["flag", "search", write_doc(CI2), "--budget", "200"])
    assert code2 == 0 and "found flag" in out2
    code3, _, err3 = run(capsys, ["flag", "search", write_doc(CRV2), "--budget", "2"])
    assert code3 == 2 and "budget" in err3


def test_flag_search_statistics(write_doc, capsys):
    code, out, _ = run(
        capsys, ["flag", "search", write_doc(CRV2), "--budget", "200", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["search"]["exhausted"] is True
    assert doc["search"]["candidates_tested"] > 0


def test_flag_verify(write_doc, capsys):
    flag = {"kind": "flag", "forms": [[1, 0], [0, 1]], "colon_indices": [0, 2]}
    text = MM1 + "cert flag " + json.dumps(flag, sort_keys=True, separators=(",", ":")) + "\n"
    code, out, _ = run(capsys, ["flag", "verify", write_doc(text)])
    assert code == 0 and "valid" in out


def test_flag_conca(write_doc, capsys):
    code, out, _ = run(capsys, ["flag", "conca", write_doc(CI2), "--x", "x"])
    assert code == 0 and "verified flag" in out
    code2, out2, _ = run(capsys, ["flag", "conca", write_doc(CI2), "--x", "x + y"])
    assert code2 == 1 and "not a Conca generator" in out2
    code3, _, err3 = run(capsys, ["flag", "conca", write_doc(CI2), "--x", "x*y"])
    assert code3 == 3 and "not a linear form" in err3


def test_flag_minmult(write_doc, capsys):
    code, out, _ = run(capsys, ["flag", "minmult", write_doc(MM1), "--j", "x"])
    assert code == 0 and "verified flag" in out
    code2, out2, _ = run(capsys, ["flag", "minmult", write_doc(CI2), "--j", "x"])
    assert code2 == 1


@pytest.mark.parametrize(
    "line,col",
    [
        ("cert flag {}", 11),
        ("cert filtration []", 17),
        ('cert flag {"forms":[[1,"a"]],"colon_indices":[0]}', 11),
    ],
)
def test_malformed_cert_exit_3_with_position(write_doc, capsys, line, col):
    code, out, err = run(capsys, ["flag", "verify", write_doc(MM1 + line + "\n")])
    assert code == 3 and out == ""
    assert err.startswith("parse error: malformed ")
    assert err.endswith(f" at 3:{col}\n")


@pytest.mark.parametrize(
    "command,line",
    [
        ("filtration", 'cert filtration {"members":[[],[[1,0,0]]],"witnesses":[]}'),
        ("flag", 'cert flag {"forms":[[1,0,7],[0,1]],"colon_indices":[0,0]}'),
        ("flag", 'cert flag {"forms":[[1.5,0],[0,1]],"colon_indices":[1,2]}'),
        ("flag", 'cert flag {"forms":[[true,0],[0,1]],"colon_indices":[1,2]}'),
    ],
)
def test_cert_vectors_need_one_integer_per_variable(write_doc, capsys, command, line):
    # a short or long vector, a float and a boolean entry are positioned
    # parse errors, not numpy's messages and not a silent int()
    code, out, err = run(capsys, [command, "verify", write_doc(CI2 + line + "\n")])
    assert code == 3 and out == ""
    assert err.startswith("parse error: malformed ") and " at 3:" in err


@pytest.mark.parametrize(
    "command,line,want",
    [
        (
            "flag",
            'cert flag {"forms":[[100000000000000000000000,0],[0,1]],"colon_indices":[1,2]}',
            (1, "invalid: flag forms are linearly dependent"),
        ),
        (
            "flag",
            'cert flag {"forms":[[100000000000000000000001,0],[0,-99999999999999999999999]],'
            '"colon_indices":[1,2]}',
            (0, "valid"),
        ),
        (
            "filtration",
            'cert filtration {"members":[[],[[100000000000000000000001,0]],[[1,0],[0,1]]],'
            '"witnesses":[{"member":1,"sub":0,"g":[100000000000000000000001,0],"colon":1},'
            '{"member":2,"sub":1,"g":[0,100000000000000000000001],"colon":2}]}',
            (0, "valid"),
        ),
    ],
)
def test_cert_entries_outside_int64_are_read_mod_p(write_doc, capsys, command, line, want):
    # 10^23 is 0 mod 5 and 10^23 + 1 is 1: a verdict with its reason, not
    # numpy's OverflowError
    code, out, err = run(capsys, [command, "verify", write_doc(CI2 + line + "\n")])
    assert (code, out.splitlines()[-1], err) == (*want, "")


def test_factorize_command(write_doc, capsys):
    flag = {"kind": "flag", "forms": [[1, 0], [0, 1]], "colon_indices": [1, 2]}
    text = CI2 + "cert flag " + json.dumps(flag, sort_keys=True, separators=(",", ":")) + "\n"
    code, out, _ = run(capsys, ["factorize", write_doc(text), "--r", "1", "--imax", "5"])
    assert code == 0
    assert "factorization: holds" in out
    assert "verdict transfer: consistent" in out


def test_factorize_holds_for_k_and_its_shift(write_doc, capsys):
    # k(2), the residue field generated in degree -2, factors as k does; the
    # zero module, with no generator degree, has all three tables zero
    text = (
        CI2 + "module name=K2 shifts=-2\n[ x, y ]\n" + "module name=Z shifts=\n"
        + 'cert flag {"forms":[[1,0],[0,1]],"colon_indices":[1,2]}\n'
    )
    path = write_doc(text)
    for module in ("k", "K2", "Z"):
        argv = ["factorize", path, "--module", module, "--r", "2", "--imax", "3", "--dmax", "4"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.splitlines()[1] == "factorization: holds", module


# (0), (x), (y) and m over ci2, with (0) : x = (x), (0) : y = (y), (x) : y = m
CI2_FOUR_MEMBERS = (
    'cert filtration {"members":[[],[[1,0]],[[0,1]],[[1,0],[0,1]]],"witnesses":['
    '{"member":1,"sub":0,"g":[1,0],"colon":1},{"member":2,"sub":0,"g":[0,1],"colon":2},'
    '{"member":3,"sub":1,"g":[0,1],"colon":3}]}\n'
)


@pytest.mark.parametrize(
    "chain, want",
    [
        ("0,1,3", (0, "")),
        ("0,99", (3, "error: flag chain is invalid: chain index 99 out of range\n")),
        # read through Python's negative indexing, this would pass as 0,1,3
        ("-4,-3,-1", (3, "error: flag chain is invalid: chain index -4 out of range\n")),
    ],
)
def test_factorize_chain_indices_must_name_members(write_doc, capsys, chain, want):
    text = CI2 + "module name=M shifts=0\n[ x, y ]\n" + CI2_FOUR_MEMBERS
    argv = ["factorize", write_doc(text), "--module", "M", "--cert", "0", f"--chain={chain}", "--r", "1"]
    code, _, err = run(capsys, argv)
    assert (code, err) == want


@pytest.mark.parametrize(
    "flag", ['{"forms":[[1,0]],"colon_indices":[1]}', '{"forms":[[1,0],[0,1]],"colon_indices":[1]}']
)
def test_factorize_flag_must_order_a_full_basis(write_doc, capsys, flag):
    code, _, err = run(capsys, ["factorize", write_doc(CI2 + f"cert flag {flag}\n")])
    assert (code, err) == (3, "error: flag must order a full basis of R_1\n")


def test_suite_command(capsys):
    code, out, _ = run(capsys, ["suite", "minmult", "--fixture", "mm1"])
    assert code == 0 and "overall: pass" in out
    code2, _, err2 = run(capsys, ["suite", "reg", "--fixture", "nk3"])
    assert code2 == 3


def test_example_command(capsys, tmp_path):
    code, out, _ = run(capsys, ["example", "crv26"])
    assert code == 0
    from koszulkit.parser import parse_input

    doc = parse_input(out)
    assert doc.ring.p == 32003
    code2, _, err2 = run(capsys, ["example", "unknown"])
    assert code2 == 3


def test_missing_file_exit_3(capsys):
    code, _, err = run(capsys, ["betti", "/nonexistent/file.txt"])
    assert code == 3
