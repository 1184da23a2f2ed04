"""Line-oriented input grammar for rings, modules and certificates.

    ring char=<p> vars=<x,y,...>
    ideal <poly>; <poly>; ...
    module name=<id> shifts=<d,...>
    [ <poly>, <poly>, ... ]           one bracketed row per generator
    cert filtration <json>
    cert flag <json>

Polynomials use integer coefficients, '*' and '^'; implicit multiplication
is a syntax error. '#' starts a comment. Diagnostics carry line:column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .arith import Polynomial, PolynomialRing, is_prime
from .filtration import FiltrationCertificate, FlagCertificate
from .quotient import GradedModule, QuotientRing, make_module, make_ring


_CERT_KINDS = {"filtration": FiltrationCertificate, "flag": FlagCertificate}


def _cert_vectors(cert) -> list[tuple[int, ...]]:
    """The linear forms of a certificate, as coordinate vectors."""
    if isinstance(cert, FlagCertificate):
        return list(cert.forms)
    return [row for m in cert.members for row in m.rows] + [w.g for w in cert.witnesses]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class ModuleBlock:
    name: str
    shifts: tuple[int, ...]
    rows: list[list[Polynomial]]   # rows[r][c]: entry of row r, column c
    module: GradedModule


@dataclass
class InputDocument:
    ring: QuotientRing | None
    ideal_gens: list[Polynomial] = field(default_factory=list)
    modules: dict[str, ModuleBlock] = field(default_factory=dict)
    certs: list[tuple[str, object]] = field(default_factory=list)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InputDocument):
            return NotImplemented
        if (self.ring is None) != (other.ring is None):
            return False
        if self.ring is not None:
            if (self.ring.p, self.ring.names) != (other.ring.p, other.ring.names):
                return False
        if [g.terms for g in self.ideal_gens] != [g.terms for g in other.ideal_gens]:
            return False
        if set(self.modules) != set(other.modules):
            return False
        for name, blk in self.modules.items():
            ob = other.modules[name]
            if blk.shifts != ob.shifts:
                return False
            if [[e.terms for e in row] for row in blk.rows] != [
                [e.terms for e in row] for row in ob.rows
            ]:
                return False
        if len(self.certs) != len(other.certs):
            return False
        for (k1, c1), (k2, c2) in zip(self.certs, other.certs):
            if k1 != k2 or c1.to_json() != c2.to_json():
                return False
        return True


# ---------------------------------------------------------------- tokenizer


def _tokenize(text: str, line: int, start_col: int):
    """Tokens (kind, value, col) for one line segment; cols are 1-based."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = start_col + i
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], col))
            i = j
        elif ch in "+-*^,;[]=":
            tokens.append((ch, ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _PolyParser:
    def __init__(self, tokens, line: int, end_col: int, ring: PolynomialRing):
        self.tokens = tokens
        self.line = line
        self.end_col = end_col
        self.ring = ring
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of polynomial", self.line, self.end_col)
        self.pos += 1
        return t

    def integer(self, token) -> int:
        """The value of an INT token; a literal longer than Python converts
        (4,300 digits by default) is a parse error at its column."""
        try:
            return int(token[1])
        except ValueError:
            raise ParseError(
                f"integer literal of {len(token[1])} digits is too long", self.line, token[2]
            ) from None

    def parse(self) -> Polynomial:
        t = self.peek()
        if t is not None and t[0] == "-":
            self.next()
            out = -self.parse_term()
        else:
            out = self.parse_term()
        while True:
            t = self.peek()
            if t is None:
                break
            if t[0] not in "+-":
                raise ParseError(
                    f"expected '+', '-' or end of polynomial, found {t[1]!r}",
                    self.line,
                    t[2],
                )
            self.next()
            term = self.parse_term()
            out = out + (term if t[0] == "+" else -term)
        return out

    def parse_term(self) -> Polynomial:
        t = self.next()
        if t[0] == "INT":
            poly = self.ring.constant(self.integer(t))
            nxt = self.peek()
            if nxt is not None and nxt[0] == "IDENT":
                raise ParseError(
                    "implicit multiplication is forbidden; use '*'", self.line, nxt[2]
                )
        elif t[0] == "IDENT":
            poly = self.parse_factor(t)
        else:
            raise ParseError(f"expected a term, found {t[1]!r}", self.line, t[2])
        while True:
            nxt = self.peek()
            if nxt is None or nxt[0] != "*":
                break
            self.next()
            f = self.next()
            if f[0] == "IDENT":
                poly = poly * self.parse_factor(f)
            elif f[0] == "INT":
                poly = poly.scale(self.integer(f))
            else:
                raise ParseError(f"expected a factor, found {f[1]!r}", self.line, f[2])
        return poly

    def parse_factor(self, ident_token) -> Polynomial:
        name = ident_token[1]
        if name not in self.ring.names:
            raise ParseError(f"unknown variable {name!r}", self.line, ident_token[2])
        var = self.ring.gen(self.ring.names.index(name))
        nxt = self.peek()
        if nxt is not None and nxt[0] == "^":
            self.next()
            e = self.next()
            if e[0] != "INT":
                raise ParseError("expected an integer exponent", self.line, e[2])
            return var ** self.integer(e)
        return var


def parse_polynomial(
    text: str, ring: PolynomialRing, line: int = 1, start_col: int = 1
) -> Polynomial:
    tokens = _tokenize(text, line, start_col)
    if not tokens:
        raise ParseError("empty polynomial", line, start_col)
    parser = _PolyParser(tokens, line, start_col + len(text), ring)
    return parser.parse()


# ------------------------------------------------------------ line parsing


def _split_outside(text: str, sep: str, start_col: int):
    """Split on sep, keeping the 1-based start column of each piece."""
    pieces = []
    col = start_col
    current = []
    cur_start = col
    for ch in text:
        if ch == sep:
            pieces.append(("".join(current), cur_start))
            current = []
            cur_start = col + 1
        else:
            current.append(ch)
        col += 1
    pieces.append(("".join(current), cur_start))
    return pieces


def _parse_kv(pairs_text: str, line: int, start_col: int) -> list[tuple[str, str, int]]:
    """key=value items separated by whitespace."""
    items = []
    i = 0
    n = len(pairs_text)
    while i < n:
        if pairs_text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not pairs_text[j].isspace():
            j += 1
        chunk = pairs_text[i:j]
        col = start_col + i
        if "=" not in chunk:
            raise ParseError(f"expected key=value, found {chunk!r}", line, col)
        key, value = chunk.split("=", 1)
        items.append((key, value, col + len(key) + 1))
        i = j
    return items


def parse_input(text: str) -> InputDocument:
    """Parse a document; ring construction errors carry source positions."""
    ring: QuotientRing | None = None
    poly_ring: PolynomialRing | None = None
    ideal_gens: list[Polynomial] = []
    modules: dict[str, ModuleBlock] = {}
    certs: list[tuple[str, object]] = []
    current_module: tuple[str, tuple[int, ...], list[list[Polynomial]], int] | None = None

    def finish_ring(line_no: int) -> QuotientRing:
        nonlocal ring
        if poly_ring is None:
            raise ParseError("no ring declared", line_no, 1)
        if ring is None:
            ring = make_ring(poly_ring, [g for g in ideal_gens if not g.is_zero()])
        return ring

    def finish_module(line_no: int) -> None:
        nonlocal current_module
        if current_module is None:
            return
        name, shifts, rows, decl_line = current_module
        if len(rows) != len(shifts):
            raise ParseError(
                f"module {name!r} declares {len(shifts)} generators but has "
                f"{len(rows)} rows",
                line_no,
                1,
            )
        ncols = {len(r) for r in rows}
        if len(ncols) > 1:
            raise ParseError(f"ragged rows in module {name!r}", line_no, 1)
        r = finish_ring(decl_line)
        cols = []
        if rows and rows[0]:
            for c in range(len(rows[0])):
                cols.append([rows[rr][c] for rr in range(len(rows))])
        try:
            module = make_module(r, shifts, cols)
        except ValueError as exc:
            raise ParseError(str(exc), decl_line, 1) from exc
        modules[name] = ModuleBlock(name, shifts, rows, module)
        current_module = None

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        stripped = body.lstrip()
        indent = len(body) - len(stripped)
        col0 = indent + 1

        if stripped.startswith("["):
            if current_module is None:
                raise ParseError("matrix row outside a module block", line_no, col0)
            if not stripped.rstrip().endswith("]"):
                raise ParseError("unterminated matrix row", line_no, col0)
            inner = stripped.rstrip()[1:-1]
            inner_col = col0 + 1
            row: list[Polynomial] = []
            if inner.strip():
                for piece, pcol in _split_outside(inner, ",", inner_col):
                    if not piece.strip():
                        raise ParseError("empty matrix entry", line_no, pcol)
                    row.append(parse_polynomial(piece, poly_ring, line_no, pcol))
            current_module[2].append(row)
            continue

        finish_module(line_no)
        keyword, _, rest = stripped.partition(" ")
        rest_col = col0 + len(keyword) + 1

        if keyword == "ring":
            if poly_ring is not None:
                raise ParseError("duplicate ring declaration", line_no, col0)
            items = dict()
            positions = dict()
            for key, value, vcol in _parse_kv(rest, line_no, rest_col):
                items[key] = value
                positions[key] = vcol
            if "char" not in items or "vars" not in items:
                raise ParseError("ring line needs char= and vars=", line_no, col0)
            try:
                p = int(items["char"])
            except ValueError:
                raise ParseError(
                    f"characteristic {items['char']!r} is not an integer",
                    line_no,
                    positions["char"],
                )
            # the range first: is_prime is never asked about a huge number
            if not 2 <= p < 2**31:
                raise ParseError(
                    f"characteristic {p} out of range [2, 2^31)", line_no, positions["char"]
                )
            if not is_prime(p):
                raise ParseError(
                    f"characteristic {p} is not prime", line_no, positions["char"]
                )
            names = [v for v in items["vars"].split(",") if v]
            for v in names:
                if not (v[0].isalpha() or v[0] == "_") or not all(
                    c.isalnum() or c == "_" for c in v
                ):
                    raise ParseError(
                        f"invalid variable name {v!r}", line_no, positions["vars"]
                    )
            if len(set(names)) < len(names):
                raise ParseError("duplicate variable names", line_no, positions["vars"])
            poly_ring = PolynomialRing(p, names)
        elif keyword == "ideal":
            if poly_ring is None:
                raise ParseError("ideal before ring declaration", line_no, col0)
            if ring is not None:
                raise ParseError("ideal after the ring was completed", line_no, col0)
            if rest.strip():
                for piece, pcol in _split_outside(rest, ";", rest_col):
                    if not piece.strip():
                        continue
                    g = parse_polynomial(piece, poly_ring, line_no, pcol)
                    lead_ws = len(piece) - len(piece.lstrip())
                    if not g.is_zero() and not g.is_homogeneous():
                        raise ParseError(
                            "non-homogeneous generator", line_no, pcol + lead_ws
                        )
                    if not g.is_zero() and g.degree() < 2:
                        raise ParseError(
                            f"degree-{g.degree()} generator; eliminate the "
                            "variable instead",
                            line_no,
                            pcol + lead_ws,
                        )
                    ideal_gens.append(g)
        elif keyword == "module":
            finish_ring(line_no)
            items = dict()
            for key, value, _vcol in _parse_kv(rest, line_no, rest_col):
                items[key] = value
            if "name" not in items or "shifts" not in items:
                raise ParseError("module line needs name= and shifts=", line_no, col0)
            try:
                shifts = tuple(int(s) for s in items["shifts"].split(",") if s)
            except ValueError:
                raise ParseError("shifts must be integers", line_no, col0)
            if items["name"] in modules:
                raise ParseError(f"duplicate module {items['name']!r}", line_no, col0)
            current_module = (items["name"], shifts, [], line_no)
        elif keyword == "cert":
            if poly_ring is None:
                raise ParseError("certificate before ring declaration", line_no, col0)
            kind, _, payload = rest.partition(" ")
            try:
                doc = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad certificate JSON ({exc.msg})", line_no, rest_col)
            if kind not in _CERT_KINDS:
                raise ParseError(f"unknown certificate kind {kind!r}", line_no, rest_col)
            try:
                cert = _CERT_KINDS[kind].from_json(doc)
                for v in _cert_vectors(cert):
                    if len(v) != poly_ring.nvars:
                        raise ValueError(f"{list(v)} needs one entry per variable")
                certs.append((kind, cert))
            except (KeyError, TypeError, ValueError) as exc:
                # well-formed JSON of the wrong shape, or of the wrong length
                raise ParseError(
                    f"malformed {kind} certificate ({type(exc).__name__}: {exc})",
                    line_no, rest_col + len(kind) + 1,
                ) from exc
        else:
            raise ParseError(f"unknown directive {keyword!r}", line_no, col0)

    finish_module(len(lines) + 1)
    if poly_ring is not None:
        finish_ring(len(lines) + 1)
    doc = InputDocument(ring)
    doc.ideal_gens = [g for g in ideal_gens if not g.is_zero()]
    doc.modules = modules
    doc.certs = certs
    return doc


def print_document(doc: InputDocument) -> str:
    """Canonical pretty-print; parse(print_document(doc)) == doc."""
    lines = []
    if doc.ring is not None:
        lines.append(
            f"ring char={doc.ring.p} vars={','.join(doc.ring.names)}"
        )
        if doc.ideal_gens:
            lines.append("ideal " + "; ".join(str(g) for g in doc.ideal_gens))
        else:
            lines.append("ideal")
    for name, blk in doc.modules.items():
        lines.append(
            f"module name={name} shifts={','.join(str(s) for s in blk.shifts)}"
        )
        for row in blk.rows:
            lines.append("[ " + ", ".join(str(e) for e in row) + " ]")
    for kind, cert in doc.certs:
        payload = json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))
        lines.append(f"cert {kind} {payload}")
    return "\n".join(lines) + "\n"
