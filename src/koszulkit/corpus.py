"""Named fixtures, seeded random module generation, and desk-scale theorem
suites for the Conca-generator, minimal-multiplicity and Fitzgerald ring
classes.

Every fixture tag is re-verified by the corresponding checker at build time,
and every suite assertion is replayable through the public ops with the
recorded (fixture, seed, bounds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .arith import polynomial_ring
from .filtration import (
    LinearIdeal,
    all_linear_ideals_filtration,
    check_conca_generator,
    check_fitzgerald,
    check_reduction,
    minimal_multiplicity_flag,
    projective_representatives,
    subsets_filtration,
    _linear_colon,
)
from .groebner import _at_each_position
from .koszul import koszul_verdict
from .quotient import (
    GradedModule,
    QuotientRing,
    make_module,
    make_ring,
    quotient_by_linear_forms,
    residue_field_module,
    scaled_submodule,
)
from .resolution import betti_table, regularity_verdict, resolve

DEFAULT_BOUNDS = (5, 8)


@dataclass
class Fixture:
    """A named ring with verified property tags and a provenance note."""

    name: str
    ring: QuotientRing
    tags: dict
    note: str


_FIXTURE_CACHE: dict[str, Fixture] = {}

FIXTURE_NAMES = ("ci2", "crv26", "mm1", "nk3", "fitz3")


def build_fixture(name: str) -> Fixture:
    """Build (and re-verify the tags of) a bundled fixture."""
    if name in _FIXTURE_CACHE:
        return _FIXTURE_CACHE[name]
    if name == "ci2":
        s, (x, y) = polynomial_ring(5, ("x", "y"))
        ring = make_ring(s, [x**2, y**2])
        tags = {"koszul": True, "conca": (1, 0), "fitzgerald": True}
        note = (
            "complete intersection of two quadrics over F_5; Conca generator x, "
            "satisfies the annihilator condition (and so is also in the "
            "Fitzgerald class)"
        )
    elif name == "crv26":
        s, (x, y, z) = polynomial_ring(32003, ("x", "y", "z"))
        ring = make_ring(s, [x**2, x * y, y * z, z**2])
        tags = {"koszul": True, "quadratic_monomial": True}
        note = (
            "quadratic monomial ring whose subsets family is a Koszul "
            "filtration; the flag search over a char-2 copy exhausts with no "
            "Groebner flag"
        )
    elif name == "mm1":
        s, (x, y) = polynomial_ring(32003, ("x", "y"))
        ring = make_ring(s, [y**2])
        tags = {"koszul": True, "minmult_reduction": ((1, 0),)}
        note = "one-dimensional ring of minimal multiplicity e = h + 1 = 2, J = (x)"
    elif name == "nk3":
        s, (x,) = polynomial_ring(5, ("x",))
        ring = make_ring(s, [x**3])
        tags = {"non_koszul": True}
        note = "cubic hypersurface control; the residue field is not Koszul"
    elif name == "fitz3":
        s, (x, y, z) = polynomial_ring(3, ("x", "y", "z"))
        ring = make_ring(s, [x**2, y**2, z**2, x * y])
        tags = {"koszul": True, "conca": (0, 0, 1), "fitzgerald": True}
        note = (
            "three-variable ring in the Fitzgerald class over F_3; z is a "
            "Conca generator (both bundled Fitzgerald fixtures happen to have "
            "one; no fixture provably lacking one is known here)"
        )
    else:
        raise ValueError(f"unknown fixture {name!r}")

    _verify_tags(ring, tags, name)
    fixture = Fixture(name, ring, tags, note)
    _FIXTURE_CACHE[name] = fixture
    return fixture


def _verify_tags(ring: QuotientRing, tags: dict, name: str) -> None:
    k = residue_field_module(ring)
    if tags.get("koszul"):
        v = koszul_verdict(k, 4, 6)
        if not v.is_yes:
            raise AssertionError(f"fixture {name}: koszul tag failed ({v})")
    if tags.get("non_koszul"):
        v = koszul_verdict(k, 4, 6)
        if not v.is_no:
            raise AssertionError(f"fixture {name}: non-koszul tag failed ({v})")
    if "conca" in tags:
        c = check_conca_generator(ring, tags["conca"])
        if not c:
            raise AssertionError(f"fixture {name}: conca tag failed ({c.failed_clause})")
    if tags.get("fitzgerald"):
        f = check_fitzgerald(ring)
        if not f:
            raise AssertionError(f"fixture {name}: fitzgerald tag failed ({f.failed_clause})")
    if "minmult_reduction" in tags:
        r = check_reduction(ring, list(tags["minmult_reduction"]))
        if not (r.holds and r.is_minimal_multiplicity):
            raise AssertionError(f"fixture {name}: minimal multiplicity tag failed ({r})")
    if tags.get("quadratic_monomial"):
        subsets_filtration(ring)


# ----------------------------------------------------------- random modules


def random_module(
    ring: QuotientRing, rank: int, max_entry_degree: int, seed: int
) -> GradedModule:
    """Seeded homogeneous presentation, generated in degree 0, normalized."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    rng = random.Random(("module", ring.p, ring.names, rank, max_entry_degree, seed).__repr__())
    ncols = rng.randint(1, rank + 2)
    shifts = (0,) * rank
    columns = []
    for _ in range(ncols):
        d = rng.randint(1, max(1, max_entry_degree))
        col = []
        for _r in range(rank):
            piece = ring.piece(d)
            coeffs = {m: rng.randrange(ring.p) for m in piece if rng.random() < 0.7}
            col.append(ring.poly_ring.from_dict(coeffs))
        columns.append(col)
    return make_module(ring, shifts, columns)


def module_killed_by(
    ring: QuotientRing,
    forms: LinearIdeal,
    rank: int,
    max_entry_degree: int,
    seed: int,
) -> GradedModule:
    """Random module with (forms) * M = 0: generated over the quotient by the
    forms and restricted back along R -> R/(forms)."""
    elim = quotient_by_linear_forms(ring, forms.rows)
    small = random_module(elim.target, rank, max_entry_degree, seed)
    columns = [
        [elim.inject(c) for c in col.components] for col in small.columns
    ]
    columns += _at_each_position([ring.linear_form(row) for row in forms.rows], small.rank)
    return make_module(ring, small.shifts, columns)


def _sampled_quotient_ring(ring: QuotientRing, rng: random.Random) -> QuotientRing:
    """R/I for a seeded homogeneous ideal I (a few linear and quadric picks)."""
    n, p = ring.nvars, ring.p
    lin_rows = []
    if n > 1 and rng.random() < 0.5:
        lin_rows.append(tuple(rng.randrange(p) for _ in range(n)))
    elim = quotient_by_linear_forms(ring, [r for r in lin_rows if any(r)])
    target = elim.target
    quads = []
    for _ in range(rng.randint(0, 2)):
        piece = target.piece(2)
        if not piece:
            continue
        q = target.poly_ring.from_dict(
            {m: rng.randrange(p) for m in piece if rng.random() < 0.8}
        )
        if not q.is_zero():
            quads.append(q)
    gens = list(target.defining_generators) + quads
    return make_ring(target.poly_ring, gens)


# ------------------------------------------------------------ suite reports


@dataclass
class Assertion:
    id: str
    passed: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"id": self.id, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class SuiteReport:
    suite: str
    fixture: str
    seed: int
    bounds: tuple[int, int]
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "fixture": self.fixture,
            "seed": self.seed,
            "bounds": {"imax": self.bounds[0], "dmax": self.bounds[1]},
            "assertions": [a.to_json() for a in self.assertions],
        }


def _module_witness(module: GradedModule, extra: dict | None = None) -> dict:
    out = {
        "shifts": list(module.shifts),
        "columns": [[str(c) for c in col.components] for col in module.columns],
    }
    if extra:
        out.update(extra)
    return out


def _koszul_claim(
    report: SuiteReport, id: str, module: GradedModule, bounds, extra: dict | None = None
) -> None:
    """The module is Koszul within the bounds; its witness on failure is the
    module with `extra`, or with the verdict when no `extra` is given."""
    v = koszul_verdict(module, *bounds)
    report.assertions.append(
        Assertion(
            id,
            v.is_yes,
            None if v.is_yes else _module_witness(module, extra or {"verdict": v.to_json()}),
        )
    )


def _regularity_claims(report: SuiteReport, ring: QuotientRing, base: int, bounds) -> None:
    """Ten random modules of regularity at most 1 (module seeds base + s)."""
    for s in range(10):
        m = random_module(ring, 1 + s % 3, 2, base + s)
        r = regularity_verdict(betti_table(resolve(m, *bounds)))
        ok = r.value is None or r.value <= 1
        report.assertions.append(
            Assertion(
                f"reg-le-1-{s}",
                ok,
                None if ok else _module_witness(m, {"regularity": r.to_json()}),
            )
        )


def _quotient_claims(
    report: SuiteReport, ring: QuotientRing, rng: random.Random, count: int, bounds
) -> None:
    """`count` quotient rings drawn from the suite's rng stay Koszul."""
    for s in range(count):
        quot = _sampled_quotient_ring(ring, rng)
        v = koszul_verdict(residue_field_module(quot), *bounds)
        report.assertions.append(
            Assertion(
                f"quotient-koszul-{s}",
                v.is_yes,
                None if v.is_yes else {"ring": repr(quot), "verdict": v.to_json()},
            )
        )


def theorem_suite(
    suite_id: str,
    fixture: Fixture | str,
    seed: int,
    bounds: tuple[int, int] = DEFAULT_BOUNDS,
) -> SuiteReport:
    """Machine-check one of the module-class theorems on a fixture.

    reg: modules killed by a Conca generator are Koszul, every module has
    regularity at most 1, m*M has a 1-linear resolution, quotients stay
    Koszul. minmult: the reduction and flag checks plus Koszulness of
    modules killed by the reduction. fitz: the all-linear filtration plus
    the annihilator-condition consequences.
    """
    if isinstance(fixture, str):
        fixture = build_fixture(fixture)
    if suite_id not in _SUITES:
        raise ValueError(f"unknown suite {suite_id!r}")
    run, tag, hypothesis = _SUITES[suite_id]
    if not fixture.tags.get(tag):
        raise ValueError(
            f"fixture {fixture.name!r} carries no {hypothesis} tag; "
            f"the {suite_id} suite hypothesis does not apply"
        )
    return run(fixture, seed, bounds)


def _suite_reg(fixture: Fixture, seed: int, bounds) -> SuiteReport:
    ring = fixture.ring
    x_row = tuple(fixture.tags["conca"])
    x_ideal = LinearIdeal.from_vectors([x_row], ring.nvars, ring.p)
    report = SuiteReport("reg", fixture.name, seed, bounds)
    rng = random.Random(("reg", fixture.name, seed).__repr__())

    for s in range(10):
        m = module_killed_by(ring, x_ideal, 1 + s % 3, 2, seed * 100 + s)
        _koszul_claim(report, f"xM0-koszul-{s}", m, bounds)
    _regularity_claims(report, ring, seed * 200, bounds)
    all_vars = [ring.poly_ring.gen(i) for i in range(ring.nvars)]
    for s in range(3):
        m = random_module(ring, 1 + s % 2, 2, seed * 300 + s)
        _koszul_claim(report, f"mM-1-linear-{s}", scaled_submodule(m, all_vars), bounds)
    _quotient_claims(report, ring, rng, 5, bounds)
    return report


def _suite_minmult(fixture: Fixture, seed: int, bounds) -> SuiteReport:
    ring = fixture.ring
    j_ideal = LinearIdeal.from_vectors(
        list(fixture.tags["minmult_reduction"]), ring.nvars, ring.p
    )
    report = SuiteReport("minmult", fixture.name, seed, bounds)
    check = check_reduction(ring, j_ideal)
    report.assertions.append(
        Assertion("reduction-clause", check.reduction_ok,
                  None if check.reduction_ok else check.to_json())
    )
    report.assertions.append(
        Assertion("regular-sequence-clause", check.regular_sequence_ok,
                  None if check.regular_sequence_ok else check.to_json())
    )
    report.assertions.append(
        Assertion("min-mult-equality", check.is_minimal_multiplicity,
                  {"e": check.multiplicity, "h": check.codim})
    )
    try:
        flag = minimal_multiplicity_flag(ring, j_ideal)
        report.assertions.append(Assertion("flag-valid", True, flag.to_json()))
    except ValueError as exc:
        report.assertions.append(Assertion("flag-valid", False, {"error": str(exc)}))
    for s in range(5):
        m = module_killed_by(ring, j_ideal, 1 + s % 3, 2, seed * 100 + s)
        _koszul_claim(report, f"JM0-koszul-{s}", m, bounds)
    return report


def _suite_fitz(fixture: Fixture, seed: int, bounds) -> SuiteReport:
    ring = fixture.ring
    report = SuiteReport("fitz", fixture.name, seed, bounds)
    rng = random.Random(("fitz", fixture.name, seed).__repr__())
    # before the lines are listed: this check stops at its budget first
    try:
        all_linear_ideals_filtration(ring)
        report.assertions.append(Assertion("all-linear-filtration-valid", True))
    except (ValueError, AssertionError) as exc:
        report.assertions.append(
            Assertion("all-linear-filtration-valid", False, {"error": str(exc)})
        )
    reps = projective_representatives(ring.nvars, ring.p)

    # (i): modules with ann(x) M = 0 are Koszul
    for s in range(10):
        x_row = reps[rng.randrange(len(reps))]
        linear_ok, ann1 = _linear_colon(
            ring, LinearIdeal.zero(), x_row, LinearIdeal.from_vectors([x_row], ring.nvars, ring.p)
        )
        if not linear_ok:
            report.assertions.append(
                Assertion(f"annx-killed-koszul-{s}", False, {"x": list(x_row)})
            )
            continue
        m = module_killed_by(ring, ann1, 1 + s % 2, 2, seed * 100 + s)
        _koszul_claim(report, f"annx-killed-koszul-{s}", m, bounds, {"x": list(x_row)})
    # (ii): (x_1..x_s) M has a 1-linear resolution
    for s in range(10):
        count = 1 + rng.randrange(ring.nvars)
        forms = [ring.linear_form(reps[rng.randrange(len(reps))]) for _ in range(count)]
        m = random_module(ring, 1 + s % 2, 2, seed * 200 + s)
        _koszul_claim(report, f"xM-1-linear-{s}", scaled_submodule(m, forms), bounds)
    # (iii): regularity at most 1
    _regularity_claims(report, ring, seed * 300, bounds)
    # (iv): sampled quotient rings remain Koszul
    _quotient_claims(report, ring, rng, 3, bounds)
    # informational only: verdict of a first syzygy module (never scores)
    m = random_module(ring, 2, 2, seed * 400)
    res = resolve(m, *bounds)
    if res.length_computed() > 1 and res.free_shifts[1]:
        syz = make_module(
            ring,
            res.free_shifts[1],
            [[c for c in col.components] for col in res.differential(2)],
        )
        v = koszul_verdict(syz, *bounds) if len(set(syz.shifts)) <= 1 else None
        report.assertions.append(
            Assertion(
                "syzygy-verdict-info",
                True,
                {"verdict": v.to_json() if v else "multi-degree generation"},
            )
        )
    return report


# suite id -> (suite, the fixture tag its hypothesis needs, the tag's name)
_SUITES = {
    "reg": (_suite_reg, "conca", "Conca-generator"),
    "minmult": (_suite_minmult, "minmult_reduction", "minimal-multiplicity"),
    "fitz": (_suite_fitz, "fitzgerald", "Fitzgerald"),
}
