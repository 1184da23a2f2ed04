"""Golden CLI output of the certificate commands on the bundled fixtures.

Each case runs one command with `--format json` on a fixture's `example`
document (with a certificate appended for the verify commands) and must
reproduce the recorded stdout byte for byte and the recorded exit code.
The verify cases check each fixture's first certificate that a flag or
filtration command returned, and a copy with its first colon assertion
moved to another member.

Regenerate the golden file only when an output is shown to be wrong:

    PYTHONPATH=src python tests/test_cli_certificates.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from koszulkit.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_certificates.json"
DOC = "@doc"  # stands for the path of the case's document in a recorded argv


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


def _run_on(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.txt"
        path.write_text(text)
        return _run([str(path) if a == DOC else a for a in [*argv, "--format", "json"]])


def _form(names, coeffs):
    return " + ".join(
        (name if c == 1 else f"{c}*{name}") for name, c in zip(names, coeffs) if c
    )


def _cert_line(kind, cert):
    return f"cert {kind} " + json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


def _broken(cert):
    """The certificate with its first colon assertion moved to another member."""
    cert = json.loads(json.dumps(cert))
    if cert["kind"] == "flag":
        n = len(cert["forms"])
        cert["colon_indices"][0] = (cert["colon_indices"][0] + 1) % (n + 1)
    else:
        w = cert["witnesses"][0]
        w["colon"] = (w["colon"] + 1) % len(cert["members"])
    return cert


def _identity_certificates(n):
    """Standard-basis flag and filtration, for fixtures where no command
    returns a certificate."""
    members = [[[int(i == k) for k in range(n)] for i in range(d)] for d in range(n + 1)]
    flag = {"kind": "flag", "forms": members[n], "colon_indices": [0] * n}
    filtration = {
        "kind": "filtration",
        "members": members,
        "witnesses": [
            {"member": d, "sub": d - 1, "g": members[d][-1], "colon": 0}
            for d in range(1, n + 1)
        ],
    }
    return flag, filtration


def _cases():
    """(id, document name, argv) of every case, and the documents by name."""
    docs, cases = {}, []
    for name in ("ci2", "crv26", "mm1", "nk3", "fitz3"):
        out, _ = _run(["example", name, "--format", "json"])
        example = json.loads(out)
        text, tags = example["document"], example["tags"]
        docs[name] = text
        names = text.splitlines()[0].split("vars=")[1].split(",")
        first, last = names[0], names[-1]

        def case(label, command, *args, doc=name):
            cases.append((f"{name}:{label}", doc, [*command.split(), DOC, *args]))

        x = _form(names, tags["conca"]) if "conca" in tags else first
        j = "; ".join(_form(names, r) for r in tags.get("minmult_reduction", ())) or first
        flag_runs = [("flag search",), ("flag conca", "--x", x), ("flag minmult", "--j", j)]
        filtration_runs = [("filtration subsets",), ("filtration all-linear",)]
        found = {"flag": [], "filtration": []}
        for kind, runs in (("flag", flag_runs), ("filtration", filtration_runs)):
            for command, *args in runs:
                case(" ".join([command, *args]), command, *args)
                out, code = _run_on([*command.split(), DOC, *args], text)
                if code == 0:
                    rep = json.loads(out)
                    found[kind].append(rep.get("search", rep)["certificate"])

        for kind, fallback in zip(("flag", "filtration"), _identity_certificates(len(names))):
            cert = (found[kind] or [fallback])[0]
            for label, c in (("valid", cert), ("broken", _broken(cert))):
                doc = f"{name}-{kind}-{label}"
                docs[doc] = text + _cert_line(kind, c)
                case(f"{kind} verify {label}", f"{kind} verify", doc=doc)

        pairs = [
            ("0", first),
            (first, last),
            (first, "1"),
            ("0", f"1; {first}"),
            (f"{last}^2", f"{first}; {last}^2"),
            (f"{first}*{last}", f"{first} + {last}; {first}^2"),
        ]
        for jg, ig in pairs:
            case(f"colon {jg} : {ig}", "colon", jg, ig)
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


def test_certificate_commands_match_golden_output(case):
    assert _run_on(case["argv"], case["text"]) == (case["stdout"], case["exit"])


if __name__ == "__main__":
    record()
