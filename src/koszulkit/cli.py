"""Command-line interface: parse an input document, dispatch one command,
emit a text or JSON report.

Exit codes: 0 positive verdict / success, 1 negative verdict, 2 inconclusive
(bounds or budget), 3 input error, usage errors too. Every report embeds the
characteristic, the bounds and the seed so each number is reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import FIXTURE_NAMES, build_fixture, theorem_suite
from .filtration import (
    BudgetExceededError,
    all_linear_ideals_filtration,
    check_conca_generator,
    check_reduction,
    conca_flag,
    minimal_multiplicity_flag,
    search_groebner_flag,
    subsets_filtration,
    verify_groebner_flag,
    verify_koszul_filtration,
)
from .groebner import colon_ideal, quotient_generators
from .koszul import (
    FlagData,
    check_factorization,
    koszul_verdict,
    poincare_hilbert_check,
    verdict_transfer_check,
)
from .parser import ParseError, parse_input, parse_polynomial, print_document, InputDocument
from .quotient import hilbert_series, residue_field_module
from .resolution import betti_table, linear_part_homology, regularity_verdict, resolve

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _budget(text: str) -> int:
    """--budget counts candidates, so it is an integer >= 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="koszulkit",
        description="graded invariants and Koszulness certificates over prime fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="input document ('-' for stdin)")
        p.add_argument("--module", default=None, help="module name (default: k)")
        p.add_argument("--imax", type=int, default=5)
        p.add_argument("--dmax", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=_budget, default=1000)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    common(sub.add_parser("hilbert", help="Hilbert series"))
    common(sub.add_parser("gb", help="reduced Groebner basis of the defining ideal"))
    p = common(sub.add_parser("colon", help="colon ideal (J : I) in the quotient"))
    p.add_argument("j_gens", help="semicolon-separated generators of J ('0' for zero)")
    p.add_argument("i_gens", help="semicolon-separated generators of I")
    common(sub.add_parser("resolve", help="minimal free resolution summary"))
    common(sub.add_parser("betti", help="graded Betti table"))
    common(sub.add_parser("reg", help="regularity verdict"))
    p = common(sub.add_parser("koszul", help="Koszulness verdict"))
    p.add_argument(
        "--method",
        choices=("betti-diagonal", "linear-part-acyclic"),
        default="betti-diagonal",
    )
    common(sub.add_parser("linpart", help="linear part homology of the resolution"))
    common(sub.add_parser("poincare", help="Poincare-Hilbert series comparison"))
    p = common(sub.add_parser("factorize", help="flag factorization of Poincare series"))
    p.add_argument("--cert", type=int, default=0, help="certificate index in the document")
    p.add_argument("--chain", default=None, help="comma-separated member indices")
    p.add_argument("--r", type=int, default=0, help="chain position annihilating the module")

    p = sub.add_parser("filtration", help="Koszul filtration operations")
    p.add_argument("action", choices=("verify", "subsets", "all-linear"))
    common(p)
    p.add_argument("--cert", type=int, default=0)

    p = sub.add_parser("flag", help="Groebner flag operations")
    p.add_argument("action", choices=("verify", "search", "conca", "minmult"))
    common(p)
    p.add_argument("--cert", type=int, default=0)
    p.add_argument("--x", default=None, help="linear form (conca)")
    p.add_argument("--j", default=None, help="semicolon-separated linear forms (minmult)")

    p = common(sub.add_parser("suite", help="theorem suites"), needs_file=False)
    p.add_argument("suite_id", choices=("reg", "minmult", "fitz"))
    p.add_argument("--fixture", required=True)

    p = sub.add_parser("example", help="print a bundled fixture as a document")
    p.add_argument("name", help=f"one of {', '.join(FIXTURE_NAMES)}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def _load_document(path: str) -> InputDocument:
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    return parse_input(text)


def _pick_module(doc: InputDocument, args):
    if doc.ring is None:
        raise ValueError("the document declares no ring")
    if args.module is None or args.module == "k":
        return residue_field_module(doc.ring)
    if args.module not in doc.modules:
        raise ValueError(f"unknown module {args.module!r}")
    return doc.modules[args.module].module


def _parse_forms(doc: InputDocument, text: str):
    out = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece or piece == "0":
            continue
        out.append(parse_polynomial(piece, doc.ring.poly_ring))
    return out


def _base_report(command: str, args, p: int | None) -> dict:
    return {
        "command": command,
        "p": p,
        "bounds": {"imax": args.imax, "dmax": args.dmax},
        "seed": args.seed,
    }


def emit_report(report: dict, fmt: str, text_body: str) -> str:
    """JSON (stable key order) or the prepared text body."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return text_body


def _header(report: dict) -> str:
    b = report["bounds"]
    return (
        f"{report['command']} p={report['p']} imax={b['imax']} "
        f"dmax={b['dmax']} seed={report['seed']}"
    )


def run_command(args) -> tuple[dict, str, int]:
    """Dispatch; returns (report, text body, exit code)."""
    cmd = args.command

    if cmd == "example":
        fixture = build_fixture(args.name)
        doc = InputDocument(fixture.ring)
        doc.ideal_gens = list(fixture.ring.defining_generators)
        text = print_document(doc)
        report = {
            "command": "example",
            "p": fixture.ring.p,
            "name": fixture.name,
            "note": fixture.note,
            "tags": {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in fixture.tags.items()},
            "document": text,
        }
        return report, text, EXIT_OK

    if cmd == "suite":
        rep = theorem_suite(args.suite_id, args.fixture, args.seed,
                            (args.imax, args.dmax))
        fixture = build_fixture(args.fixture)
        report = _base_report("suite", args, fixture.ring.p)
        report["report"] = rep.to_json()
        lines = [_header(report)]
        for a in rep.assertions:
            lines.append(f"  [{'pass' if a.passed else 'FAIL'}] {a.id}")
        lines.append(f"overall: {'pass' if rep.passed else 'FAIL'}")
        return report, "\n".join(lines) + "\n", EXIT_OK if rep.passed else EXIT_NEGATIVE

    doc = _load_document(args.file)
    if doc.ring is None:
        raise ValueError("the document declares no ring")
    ring = doc.ring
    report = _base_report(cmd, args, ring.p)

    if cmd == "hilbert":
        obj = ring if args.module is None else _pick_module(doc, args)
        h = hilbert_series(obj, max(args.dmax, 1))
        report["hilbert"] = h.to_json()
        body = _header(report) + "\n" + (
            f"expansion: {list(h.expansion)}\n"
            f"numerator: {list(h.numerator)} offset {h.offset} over (1-t)^{h.denominator_power}\n"
            f"krull_dim: {h.krull_dim}  multiplicity: {h.multiplicity}  codim: {h.codim}\n"
        )
        return report, body, EXIT_OK

    if cmd == "gb":
        gens = [str(g) for g in ring.gb.generators]
        report["groebner_basis"] = gens
        body = _header(report) + "\n" + "\n".join(gens or ["0"]) + "\n"
        return report, body, EXIT_OK

    if cmd == "colon":
        j_gens = _parse_forms(doc, args.j_gens)
        i_gens = _parse_forms(doc, args.i_gens)
        gb = colon_ideal(j_gens, i_gens, ring)
        in_quotient = [str(g) for g in quotient_generators(gb, ring)]
        report["colon"] = {
            "preimage_basis": [str(g) for g in gb.generators],
            "quotient_generators": in_quotient,
        }
        body = _header(report) + "\n" + "\n".join(in_quotient or ["0"]) + "\n"
        return report, body, EXIT_OK

    if cmd in ("resolve", "betti", "reg", "koszul", "linpart", "poincare"):
        module = _pick_module(doc, args)
        if cmd == "poincare":
            ph = poincare_hilbert_check(module, args.imax, args.dmax)
            report["poincare_hilbert"] = ph.to_json()
            body = _header(report) + "\n" + (
                f"lhs: {list(ph.lhs)}\nrhs: {list(ph.rhs)}\n"
                + ("holds\n" if ph.holds else f"fails at degree {ph.fail_degree}\n")
            )
            return report, body, EXIT_OK if ph.holds else EXIT_NEGATIVE
        if cmd == "koszul":
            v = koszul_verdict(module, args.imax, args.dmax, args.method)
            report["koszul"] = v.to_json()
            body = _header(report) + "\n" + (
                f"verdict: {v.verdict}"
                + (f" witness {v.witness}" if v.witness else "")
                + "\n"
            )
            code = (
                EXIT_OK if v.is_yes else EXIT_NEGATIVE if v.is_no else EXIT_INCONCLUSIVE
            )
            return report, body, code
        res = resolve(module, args.imax, args.dmax)
        if cmd == "resolve":
            report["resolution"] = {
                "free_shifts": [list(s) for s in res.free_shifts],
                "warnings": res.warnings,
            }
            lines = [_header(report)]
            for i, shifts in enumerate(res.free_shifts):
                lines.append(f"F_{i}: shifts {list(shifts)}")
            return report, "\n".join(lines) + "\n", EXIT_OK
        if cmd == "betti":
            table = betti_table(res)
            report["betti"] = table.to_json()
            body = _header(report) + "\n" + table.render_text()
            return report, body, EXIT_OK
        if cmd == "reg":
            verdict = regularity_verdict(betti_table(res))
            report["regularity"] = verdict.to_json()
            body = _header(report) + f"\n{verdict.kind}({verdict.value})\n"
            code = EXIT_INCONCLUSIVE if verdict.kind == "AtLeast" else EXIT_OK
            return report, body, code
        # linpart: homology at 1 <= i < imax, none to check below imax 2 but
        # for the zero module, whose resolution is zero (as `koszul` reads it)
        if args.imax < 2 and not module.is_zero():
            report["linear_part_homology"] = {"nonzero": {}, "acyclic_in_window": None}
            body = _header(report) + "\ninconclusive: no degree 1 <= i < imax to check\n"
            return report, body, EXIT_INCONCLUSIVE
        dims = {f"{i},{d}": h for (i, d), h in linear_part_homology(res)}
        clean = not dims
        report["linear_part_homology"] = {"nonzero": dims, "acyclic_in_window": clean}
        body = _header(report) + "\n" + (
            "acyclic within bounds\n" if clean else f"nonzero homology: {dims}\n"
        )
        return report, body, EXIT_OK if clean else EXIT_NEGATIVE

    if cmd == "factorize":
        module = _pick_module(doc, args)
        flag_data = _flag_data_from_doc(doc, args)
        fr = check_factorization(module, flag_data, args.imax, args.dmax)
        tr = verdict_transfer_check(module, flag_data, args.imax, args.dmax)
        report["factorization"] = fr.to_json()
        report["transfer"] = tr.to_json()
        ok = fr.holds and tr.consistent
        body = _header(report) + "\n" + (
            f"factorization: {'holds' if fr.holds else f'fails at {fr.witness}'}\n"
            f"verdict transfer: {'consistent' if tr.consistent else 'inconsistent'}\n"
        )
        return report, body, EXIT_OK if ok else EXIT_NEGATIVE

    if cmd == "filtration":
        return _run_filtration(doc, args, report)
    if cmd == "flag":
        return _run_flag(doc, args, report)
    raise ValueError(f"unknown command {cmd!r}")


def _get_cert(doc: InputDocument, index: int, kind: str | None = None):
    if not doc.certs:
        raise ValueError("the document contains no certificates")
    if not (0 <= index < len(doc.certs)):
        raise ValueError(f"certificate index {index} out of range")
    k, cert = doc.certs[index]
    if kind is not None and k != kind:
        raise ValueError(f"certificate {index} has kind {k!r}, expected {kind!r}")
    return cert


def _flag_data_from_doc(doc: InputDocument, args) -> FlagData:
    cert = _get_cert(doc, args.cert)
    kind = doc.certs[args.cert][0]
    ring = doc.ring
    if kind == "flag":
        filtration = cert.as_filtration(ring.nvars, ring.p)
        chain = tuple(range(ring.nvars + 1))
        return FlagData(filtration, chain, args.r)
    if args.chain is None:
        raise ValueError("--chain is required with a filtration certificate")
    chain = tuple(int(c) for c in args.chain.split(","))
    return FlagData(cert, chain, args.r)


def _run_filtration(doc, args, report):
    ring = doc.ring
    if args.action == "verify":
        cert = _get_cert(doc, args.cert, "filtration")
        result = verify_koszul_filtration(ring, cert)
        report["verification"] = {
            "valid": result.valid,
            "failing_member": result.failing_index,
            "reason": result.reason,
        }
        body = _header(report) + "\n" + (
            "valid\n" if result.valid else f"invalid: {result.reason}\n"
        )
        return report, body, EXIT_OK if result.valid else EXIT_NEGATIVE
    if args.action == "subsets":
        cert = subsets_filtration(ring)
        report["certificate"] = cert.to_json()
        body = _header(report) + f"\nvalid subsets filtration, {len(cert.members)} members\n"
        return report, body, EXIT_OK
    # all-linear
    try:
        cert = all_linear_ideals_filtration(ring, max_subspaces=args.budget)
    except AssertionError as exc:
        report["finding"] = str(exc)
        return report, _header(report) + f"\n{exc}\n", EXIT_NEGATIVE
    report["certificate"] = cert.to_json()
    body = _header(report) + f"\nvalid all-linear filtration, {len(cert.members)} members\n"
    return report, body, EXIT_OK


def _run_flag(doc, args, report):
    ring = doc.ring
    if args.action == "verify":
        cert = _get_cert(doc, args.cert, "flag")
        result = verify_groebner_flag(ring, cert)
        report["verification"] = {
            "valid": result.valid,
            "failing_index": result.failing_index,
            "reason": result.reason,
        }
        body = _header(report) + "\n" + (
            "valid\n" if result.valid else f"invalid: {result.reason}\n"
        )
        return report, body, EXIT_OK if result.valid else EXIT_NEGATIVE
    if args.action == "search":
        result = search_groebner_flag(ring, args.budget)
        report["search"] = result.to_json()
        found = result.certificate is not None
        body = _header(report) + "\n" + (
            (f"found flag {result.certificate.forms} with colon indices "
             f"{result.certificate.colon_indices}\n")
            if found
            else (f"exhausted: no Groebner flag; {result.candidates_tested} "
                  f"candidates tested\n")
        )
        return report, body, EXIT_OK if found else EXIT_NEGATIVE
    if args.action == "conca":
        if args.x is None:
            raise ValueError("flag conca needs --x <linear form>")
        form = parse_polynomial(args.x, ring.poly_ring)
        check = check_conca_generator(ring, form)
        report["conca_check"] = {
            "is_conca": check.is_conca,
            "failed_clause": check.failed_clause,
        }
        if not check:
            body = _header(report) + f"\nnot a Conca generator: {check.failed_clause}\n"
            return report, body, EXIT_NEGATIVE
        return _verified_flag(report, lambda: conca_flag(ring, form, budget=args.budget))
    # minmult
    if args.j is None:
        raise ValueError("flag minmult needs --j <forms>")
    forms = _parse_forms(doc, args.j)
    check = check_reduction(ring, forms)
    report["reduction_check"] = check.to_json()
    if not check:
        body = _header(report) + f"\nreduction checks failed: {check.to_json()}\n"
        return report, body, EXIT_NEGATIVE
    return _verified_flag(report, lambda: minimal_multiplicity_flag(ring, forms))


def _verified_flag(report, build):
    """The report of a flag built by `build()`, or of the ValueError it raised."""
    try:
        cert = build()
    except ValueError as exc:
        report["error"] = str(exc)
        return report, _header(report) + f"\n{exc}\n", EXIT_NEGATIVE
    report["certificate"] = cert.to_json()
    body = _header(report) + (
        f"\nverified flag {cert.forms} with colon indices {cert.colon_indices}\n"
    )
    return report, body, EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse wrote the help (status 0), or the usage and error (status 2)
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        report, body, code = run_command(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_INPUT
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    fmt = getattr(args, "format", "text")
    sys.stdout.write(emit_report(report, fmt, body))
    return code


if __name__ == "__main__":
    sys.exit(main())
