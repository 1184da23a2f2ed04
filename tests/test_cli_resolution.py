"""Golden CLI output of the resolution commands on the bundled fixtures.

Each case runs `betti`, `reg`, `koszul` (both methods), `linpart`,
`poincare` or `hilbert` with `--format json` at the default bounds on a fixture's
`example` document, and must reproduce the recorded stdout byte for byte
and the recorded exit code.

Regenerate the golden file only when an output is shown to be wrong:

    PYTHONPATH=src python tests/test_cli_resolution.py
"""

import json
from pathlib import Path

from test_cli_certificates import DOC, _run, _run_on

GOLDEN = Path(__file__).parent / "golden" / "cli_resolution.json"
COMMANDS = (
    ("betti",),
    ("reg",),
    ("koszul", "--method", "betti-diagonal"),
    ("koszul", "--method", "linear-part-acyclic"),
    ("linpart",),
    ("poincare",),
    ("hilbert",),
)


def _cases():
    """(id, document name, argv) of every case, and the documents by name."""
    docs, cases = {}, []
    for name in ("ci2", "crv26", "mm1", "nk3", "fitz3"):
        out, _ = _run(["example", name, "--format", "json"])
        docs[name] = json.loads(out)["document"]
        for command, *args in COMMANDS:
            cases.append((" ".join([name, command, *args]), name, [command, DOC, *args]))
    return docs, cases


def record():
    docs, cases = _cases()
    entries = []
    for cid, doc, argv in cases:
        out, code = _run_on(argv, docs[doc])
        entries.append({"id": cid, "document": doc, "argv": argv, "stdout": out, "exit": code})
    golden = {"documents": docs, "cases": entries}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def pytest_generate_tests(metafunc):
    golden = json.loads(GOLDEN.read_text())
    cases = [dict(c, text=golden["documents"][c["document"]]) for c in golden["cases"]]
    metafunc.parametrize("case", cases, ids=[c["id"] for c in cases])


def test_resolution_commands_match_golden_output(case):
    assert _run_on(case["argv"], case["text"]) == (case["stdout"], case["exit"])


if __name__ == "__main__":
    record()
