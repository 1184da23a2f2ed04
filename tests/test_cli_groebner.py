"""Golden CLI output of the Groebner commands on rings whose reduced bases are
not monomial.

The documents are `ring4` (a^2, b^2, c*d, a*c + b*d at p = 32003) and three
dense quadrics in four variables at p = 2^31 - 1, whose coefficients are
drawn by `random.Random("cli-dense-4-3")`. Each case runs `gb`, `colon` or
`betti` with `--format json` and must reproduce the recorded stdout byte for
byte and the recorded exit code. One colon per document has an
inhomogeneous J, whose colon ideal is not homogeneous.

Regenerate the golden file only when an output is shown to be wrong:

    PYTHONPATH=src python tests/test_cli_groebner.py
"""

import json
import random
from itertools import combinations_with_replacement
from pathlib import Path

from test_cli_certificates import DOC, _run_on

GOLDEN = Path(__file__).parent / "golden" / "cli_groebner.json"


def _dense_document():
    names, p = "abcd", 2**31 - 1
    rng = random.Random("cli-dense-4-3")
    monos = list(combinations_with_replacement(names, 2))
    quadrics = [" + ".join(f"{rng.randrange(1, p)}*{x}*{y}" for x, y in monos) for _ in range(3)]
    return f"ring char={p} vars={','.join(names)}\nideal " + "; ".join(quadrics) + "\n"


DOCUMENTS = {
    "ring4": "ring char=32003 vars=a,b,c,d\nideal a^2; b^2; c*d; a*c + b*d\n",
    "dense-4-3": _dense_document(),
}

COLONS = (
    ("0", "a"),
    ("0", "a; c"),
    ("a", "b"),
    ("c", "a + b"),
    ("a*b", "c + d; a^2"),
    ("a + b^2", "c"),
)


def _cases():
    """(id, document name, argv) of every case."""
    cases = []
    for name in DOCUMENTS:
        for command in (["gb"], ["betti"]):
            cases.append((f"{name} {command[0]}", name, [command[0], DOC]))
        for jg, ig in COLONS:
            cases.append((f"{name} colon {jg} : {ig}", name, ["colon", DOC, jg, ig]))
    return cases


def record():
    entries = []
    for cid, doc, argv in _cases():
        out, code = _run_on(argv, DOCUMENTS[doc])
        entries.append({"id": cid, "document": doc, "argv": argv, "stdout": out, "exit": code})
    golden = {"documents": DOCUMENTS, "cases": entries}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def pytest_generate_tests(metafunc):
    golden = json.loads(GOLDEN.read_text())
    cases = [dict(c, text=golden["documents"][c["document"]]) for c in golden["cases"]]
    metafunc.parametrize("case", cases, ids=[c["id"] for c in cases])


def test_groebner_commands_match_golden_output(case):
    assert _run_on(case["argv"], case["text"]) == (case["stdout"], case["exit"])


if __name__ == "__main__":
    record()
