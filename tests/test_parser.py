"""Input grammar: documents, diagnostics, round trips."""

import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from koszulkit.filtration import FlagCertificate, all_linear_ideals_filtration
from koszulkit.parser import (
    InputDocument,
    ParseError,
    parse_input,
    parse_polynomial,
    print_document,
)
from koszulkit.arith import polynomial_ring


CI2_TEXT = "ring char=5 vars=x,y\nideal x^2; y^2\n"


def test_parse_ring():
    doc = parse_input(CI2_TEXT)
    assert doc.ring.p == 5
    assert doc.ring.names == ("x", "y")
    assert [str(g) for g in doc.ideal_gens] == ["x^2", "y^2"]


def test_parse_module():
    doc = parse_input(CI2_TEXT + "module name=M shifts=0,0\n[ x, 0 ]\n[ y, x*y ]\n")
    blk = doc.modules["M"]
    assert blk.shifts == (0, 0)
    assert len(blk.rows) == 2 and len(blk.rows[0]) == 2
    assert blk.module.rank <= 2


def test_parse_empty_row_is_free_module():
    doc = parse_input(CI2_TEXT + "module name=F shifts=0\n[ ]\n")
    assert not doc.modules["F"].module.columns


def test_nonhomogeneous_diagnostic_position():
    with pytest.raises(ParseError) as exc:
        parse_input("ring char=5 vars=x,y\nideal x^2 + y")
    assert str(exc.value) == "non-homogeneous generator at 2:7"


def test_non_prime_char():
    with pytest.raises(ParseError, match="not prime"):
        parse_input("ring char=6 vars=x")


def test_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'z'"):
        parse_input("ring char=5 vars=x,y\nideal x*z")


def test_implicit_multiplication_forbidden():
    with pytest.raises(ParseError, match="implicit multiplication"):
        parse_input("ring char=5 vars=x,y\nideal 2x^2")


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_input("ring char=5 vars=x,y\nideal x^")
    assert exc.value.line == 2


def test_degree_one_generator_rejected():
    with pytest.raises(ParseError, match="eliminate the variable"):
        parse_input("ring char=5 vars=x,y\nideal x^2; x + y")


def test_huge_exponent_parses_at_once():
    # x^(10^12) is zero modulo x^2; the power is taken by squaring
    doc = parse_input("ring char=5 vars=x,y\nideal x^2\nmodule name=M shifts=0\n[ x^1000000000000, y ]\n")
    assert [str(e) for e in doc.modules["M"].rows[0]] == ["x^1000000000000", "y"]


@pytest.mark.parametrize(
    "line, col",
    [
        ("ideal x^2 + {n}*y^2", 13),
        ("ideal x^2 + x*{n}*y", 15),
        ("ideal x^{n}", 9),
    ],
)
def test_integer_literal_too_long_to_convert_has_position(line, col):
    # Python converts at most 4,300 digits by default: a parse error at the
    # literal's column, not a bare ValueError
    with pytest.raises(ParseError) as exc:
        parse_input("ring char=5 vars=x,y\n" + line.format(n="7" * 5000))
    assert (exc.value.line, exc.value.col) == (2, col)
    assert exc.value.message == "integer literal of 5000 digits is too long"


def test_matrix_row_outside_module():
    with pytest.raises(ParseError, match="outside a module"):
        parse_input(CI2_TEXT + "[ x ]\n")


def test_cert_round_trip(ci2):
    cert = all_linear_ideals_filtration(ci2)
    doc = InputDocument(ci2)
    doc.ideal_gens = list(ci2.defining_generators)
    doc.certs = [("filtration", cert), ("flag", FlagCertificate(((1, 0), (0, 1)), (1, 2)))]
    text = print_document(doc)
    doc2 = parse_input(text)
    assert doc == doc2
    assert doc2.certs[0][1].to_json() == cert.to_json()


def test_comments_and_blank_lines():
    doc = parse_input("# a comment\n\nring char=5 vars=x,y  # trailing\nideal x^2; y^2\n")
    assert doc.ring.p == 5
    assert len(doc.ideal_gens) == 2


def _random_document(seed: int) -> str:
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7])
    nvars = rng.randint(1, 3)
    names = ["x", "y", "z"][:nvars]
    s, gens = polynomial_ring(p, names)
    lines = [f"ring char={p} vars={','.join(names)}"]
    ideal = []
    for _ in range(rng.randint(0, 2)):
        d = 2
        piece = s.monomials_of_degree(d)
        poly = s.from_dict({m: rng.randrange(p) for m in piece if rng.random() < 0.7})
        if not poly.is_zero():
            ideal.append(str(poly))
    lines.append("ideal " + "; ".join(ideal) if ideal else "ideal")
    if rng.random() < 0.7:
        rank = rng.randint(1, 2)
        shifts = [rng.randint(0, 1) for _ in range(rank)]
        lines.append(f"module name=M shifts={','.join(map(str, shifts))}")
        ncols = rng.randint(1, 2)
        col_degs = [max(shifts) + rng.randint(1, 2) for _ in range(ncols)]
        for r in range(rank):
            entries = []
            for c in range(ncols):
                piece = s.monomials_of_degree(col_degs[c] - shifts[r])
                poly = s.from_dict(
                    {m: rng.randrange(p) for m in piece if rng.random() < 0.5}
                )
                entries.append(str(poly))
            lines.append("[ " + ", ".join(entries) + " ]")
    return "\n".join(lines) + "\n"


def test_round_trip_50_seeded_documents():
    ok = 0
    for seed in range(50):
        text = _random_document(seed)
        try:
            doc = parse_input(text)
        except ParseError:
            continue  # a sampled module may be inhomogeneous; skip those
        printed = print_document(doc)
        doc2 = parse_input(printed)
        assert doc == doc2, f"seed {seed}"
        assert print_document(doc2) == printed
        ok += 1
    assert ok >= 40


_CERT_KEYS = ("kind", "forms", "colon_indices", "members", "witnesses", "member", "sub", "g", "colon")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_CERT_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# certificate-shaped JSON, whose vectors may have any length and entries
# that are not integers
_VECTOR = st.lists(st.integers(-3, 7) | st.booleans() | st.floats(-2, 2), max_size=3)
_INDEX = st.integers(0, 3)
_CERT_SHAPED = st.fixed_dictionaries(
    {"forms": st.lists(_VECTOR, max_size=3), "colon_indices": st.lists(_INDEX, max_size=3)}
) | st.fixed_dictionaries(
    {
        "members": st.lists(st.lists(_VECTOR, max_size=2), max_size=3),
        "witnesses": st.lists(
            st.fixed_dictionaries({"member": _INDEX, "sub": _INDEX, "g": _VECTOR, "colon": _INDEX}),
            max_size=2,
        ),
    }
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("flag", "filtration")), _JSON | _CERT_SHAPED)
def test_cert_line_parses_or_raises_parse_error(kind, value):
    # any JSON value: a certificate or a ParseError with a position, nothing
    # else; every vector of a certificate that parses has one integer per
    # variable of the ring
    text = CI2_TEXT + f"cert {kind} {json.dumps(value)}\n"
    try:
        doc = parse_input(text)
    except ParseError as exc:
        assert exc.line == 3
    else:
        assert [k for k, _ in doc.certs] == [kind]
        cert = doc.certs[0][1]
        if kind == "flag":
            vectors = list(cert.forms)
        else:
            vectors = [row for m in cert.members for row in m.rows]
            vectors += [w.g for w in cert.witnesses]
        assert all(len(v) == doc.ring.nvars for v in vectors)
        assert all(type(c) is int for v in vectors for c in v)
