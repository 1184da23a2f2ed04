"""Truncated minimal graded free resolutions, Betti tables, regularity,
linear parts and graded-piece homology.

The engine is exact linear algebra over F_p, one internal degree at a time,
for all steps together. Each step is a `groebner._stage`, chained so that
the degree-d map N_d one stage yields is the next stage's M_d. A stage
builds N_d from N_{d-1} over its generators of degrees < d, so its columns
span R_1 times the degree d-1 part, and one elimination on N_d settles the
graded Nakayama sieve; the new generators are then appended to N_d. So each
step's degree map is built once and serves both its own sieve and the next
kernel. The stages differ only in their sieve: step 1 keeps presentation
columns (`groebner._pivot_sieve`), each later step rows of the kernel K_d
of M_d, the degree-d syzygies (`_kernel_sieve`), and a map rebuilt for its
ranks keeps every stored column (`_keep_all`). Every entry of every
recorded differential is therefore trustworthy for internal degrees <=
d_max, and minimality (entries in the maximal ideal) holds by construction.

Only nonzero pieces cost work. A stage builds no map before its first
generator, a degree map with no rows or no columns is returned at once, and
a kernel sieve takes no kernel where M_d has no columns or where the
recorded rank of M_d shows that N_d already spans its kernel. A stage ends
once its piece vanishes for good: R is generated in degree 1, so R_e = 0
gives R_{e+1} = 0, and a step all of whose generators have degree <= d has
only zero pieces after a zero degree-d piece. Step 1 ends there once no
presentation column of a higher degree is left; a later step once the step
before it has ended (so no generator can come). The last step ends with the
last degree its sieve sees: no stage reads the maps it would build after
that. `resolve` stops when the last stage ends, and the ranks of the degrees
it did not reach are 0. Over an Artinian ring the work is thus bounded by
its socle degree, not by d_max; other rings run to d_max.

The degree maps N_d are sparse: each is kept as its shape and nonzero
entries, built from the nonzeros of N_{d-1} and handed as such to every
elimination. A differential is stored dense, as the engine's sieves return
it: for each internal degree d, one int64 matrix whose rows are the step's
degree-d generators as coordinate vectors of the degree-d piece of the
target free module, in the order the sieve keeps them. `FreeModuleVector`
columns are built from those rows only when `differential(i)` is asked for;
Betti tables, linear parts and homology read the matrices.

The rank of every degree-d map is recorded while the resolution is built,
so homology never ranks a map of a resolution again. It comes from the
stage that built the map, whose kernel sieve counts the rank of N_d from
its elimination and its new generators, or from the next stage's kernel of
it. Map 1 is built by step 1, whose pivot sieve records its rank at the
degrees of the presentation columns, where it eliminates; step 2 takes a
kernel of it at the other degrees where it is nonzero. Every stage reads the
rank its predecessor recorded and takes a kernel only in the degrees where
that rank leaves room for a new generator. A linear part shares the blocks
and ranks of every step whose entries are all linear. Only a map no kernel
sieve ranked (map 1 when i_max = 1, or a linear-part step that drops a
nonzero entry) is rebuilt and ranked, once, on the first homology query.

Over monomial rings the large degree maps are at most a few percent
nonzero, so they take the sparse path of `linalg`, and no array of them is
made. How a map is eliminated is for `linalg` to choose: a kernel sieve
asks `_last_entries` for the last entries of N_d and `_kernel_rows` for
the rows of ker M_d, reduced from one forward pass at the kept free columns
alone. The echelon form that the first keeps of a dense N_d is the second's
forward pass at the next stage, so each dense degree map is eliminated once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .groebner import (
    FreeModuleVector,
    _NO_ROWS,
    _by_degree,
    _candidate_rows,
    _pivot_sieve,
    _stage,
    shift_runs,
    vector_from_coords,
)
from .linalg import _kernel_rows, _last_entries, rank
from .quotient import GradedModule, QuotientRing, _MAX_NUMERATOR_DEGREE


@dataclass(eq=False)
class FreeComplex:
    """A complex F_0 <- F_1 <- ... of shifted free modules, trusted for
    internal degrees <= d_max.

    free_shifts[i] are the generator degrees of F_i. blocks[i-1] maps each
    internal degree d to the matrix whose rows are the degree-d columns of
    F_i -> F_{i-1}, as coordinate vectors of the degree-d piece of F_{i-1};
    the generators of F_i are these rows in increasing d. A linear part is
    a bare FreeComplex; a resolution adds its warnings and Betti table.

    _ranks[i] is an int64 array whose entry d - lo, for lo the lowest shift
    of F_0 (0 when F_0 is zero) and lo <= d <= d_max, is the rank of the
    degree-d map of F_i -> F_{i-1} (no map has a lower degree). `resolve`
    fills it from its own eliminations and `linear_part` shares the arrays
    of the steps it leaves unchanged; `map_ranks` fills any other step on
    demand. Arrays, not dicts, so that the ranks add no objects for the
    cycle collector to count.
    """

    ring: QuotientRing
    free_shifts: list[tuple[int, ...]]
    blocks: list[dict[int, np.ndarray]]
    i_max: int
    d_max: int
    _columns: dict[int, tuple[FreeModuleVector, ...]] = field(
        default_factory=dict, init=False, repr=False
    )
    _ranks: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def length_computed(self) -> int:
        return len(self.blocks)

    def differential(self, i: int) -> tuple[FreeModuleVector, ...]:
        """Columns of F_i -> F_{i-1} (i >= 1), built on the first call."""
        cols = self._columns.get(i)
        if cols is None:
            target = self.free_shifts[i - 1]
            cols = tuple(
                vector_from_coords(self.ring, target, row, d)
                for d, mat in self.blocks[i - 1].items()
                for row in mat
            )
            self._columns[i] = cols
        return cols

    @property
    def steps(self) -> list[tuple[FreeModuleVector, ...]]:
        return [self.differential(i) for i in range(1, len(self.blocks) + 1)]

    def map_ranks(self, i: int) -> np.ndarray:
        """Ranks of the degree-d maps of F_i -> F_{i-1}, laid out as `_ranks[i]`
        (fill-once cache). The ranks recorded when the complex was built are
        returned as they are; a step without them is rebuilt by one `_stage`
        that keeps every stored row and ranked on the first call. The maps it
        does not yield have no rows or no columns."""
        ranks = self._ranks.get(i)
        if ranks is None:
            lo = _window_start(self.free_shifts[0], self.d_max)
            ranks = self._ranks[i] = np.zeros(max(self.d_max + 1 - lo, 0), dtype=np.int64)
            incoming = _by_degree(self.free_shifts[i - 1], self.blocks[i - 1])
            for d, _gens, mat in _stage(self.ring, incoming, _keep_all, {}, self.d_max):
                ranks[d - lo] = rank(mat, self.ring.p)
        return ranks


@dataclass(eq=False)
class Resolution(FreeComplex):
    """Steps of a minimal graded free resolution of a module over `ring`,
    trusted for degrees <= d_max. The module caches its resolutions; a
    resolution holds only the ring, so the two form no reference cycle.
    presentation_cut: presentation columns above d_max were dropped."""

    warnings: list[str] = field(default_factory=list)
    presentation_cut: bool = False

    def betti(self) -> "BettiTable":
        entries = Counter((i, j) for i, shifts in enumerate(self.free_shifts) for j in shifts)
        return BettiTable(dict(entries), self.i_max, self.d_max, self.presentation_cut)


def resolve(module: GradedModule, i_max: int, d_max: int) -> Resolution:
    """Minimal free resolution of the module out to (i_max, d_max). The zero
    module resolves like a free module of rank 0: F_0 .. F_imax are zero.

    Results are cached on the module (immutable inputs, fill-once cache).
    """
    if i_max < 1 or d_max < 1:
        raise ValueError("resolution bounds must be >= 1")
    lo = _window_start(module.shifts, d_max)
    cached = module.resolutions.get((i_max, d_max))
    if cached is not None:
        return cached

    ring = module.ring
    warnings: list[str] = []

    # step 1 sieves the presentation columns in the window
    in_window = [c for c in module.columns if (c.internal_degree() or 0) <= d_max]
    cut = len(in_window) < len(module.columns)
    if cut:
        warnings.append(
            "presentation columns above d_max were dropped; step 1 is "
            "incomplete beyond the degree window"
        )
    if module.columns and not in_window:
        warnings.append("bounds too small to produce step 1")
    candidates = _candidate_rows(ring, module.shifts, in_window)

    # one stage per step, chained and all run degree by degree: each yields
    # its degree maps to the next; row i-1 of ranks collects the degree
    # ranks of map i, laid out as FreeComplex._ranks
    ranks = np.zeros((i_max, max(d_max + 1 - lo, 0)), dtype=np.int64)
    sieves = [_pivot_sieve(ring.p, ranks[0], lo)]
    # each kernel sieve but the last hands its dense eliminations on to the
    # next; step 1 hands on none
    received: dict = {}
    for i in range(1, i_max):
        passed = {} if i + 1 < i_max else None
        sieves.append(_kernel_sieve(ring.p, ranks[i - 1], ranks[i], lo, received, passed))
        received = passed
    blocks: list[dict[int, np.ndarray]] = []
    maps = _by_degree(module.shifts, candidates)
    for i, sieve in enumerate(sieves, start=1):
        blocks.append({})
        # the last stage gets a d_last below its degrees: no stage reads the
        # maps it would build after its sieve's last degree
        maps = _stage(ring, maps, sieve, blocks[-1], d_max if i < i_max else lo - 1)
    # the last stage ends after every other; the ranks it did not reach are
    # those of maps into zero pieces
    for _ in maps:
        pass

    free_shifts = [module.shifts]
    for step in blocks:
        # minimality: no degree-d column has a nonzero constant entry, that
        # is, a nonzero coordinate in a target block of shift d
        for d, mat in step.items():
            if mat[:, _coordinate_shifts(ring, free_shifts[-1], d) == d].any():
                raise AssertionError("non-minimal differential entry")
        free_shifts.append(_shifts(step))
    res = Resolution(ring, free_shifts, blocks, i_max, d_max, warnings, cut)
    if i_max >= 2:
        # with no syzygy stage, map 1 was never ranked
        res._ranks.update(enumerate(ranks, start=1))
    module.resolutions[(i_max, d_max)] = res
    return res


def _window_start(shifts, d_max):
    """The lowest degree lo of the window lo..d_max of a complex whose F_0
    has generators of the given degrees (0 when it has none). The ranks hold
    one entry per degree of the window, so a window wider than the dense
    bound `quotient._MAX_NUMERATOR_DEGREE` raises ValueError before any
    array is made."""
    lo = min(shifts, default=0)
    if d_max - lo > _MAX_NUMERATOR_DEGREE:
        raise ValueError(
            f"the degree window {lo}..{d_max} is wider than the limit "
            f"{_MAX_NUMERATOR_DEGREE} of a dense table"
        )
    return lo


def _shifts(step):
    """Generator degrees of a step given as {d: matrix of degree-d rows}."""
    return sum(((d,) * len(mat) for d, mat in step.items()), ())


def _coordinate_shifts(ring, shifts, d):
    """For each coordinate of the degree-d piece of the free module with the
    given shifts, the shift of the block it lies in."""
    runs = shift_runs(ring, shifts, d - 1)
    return np.repeat([s for s, *_ in runs], [m * high for _s, m, _low, high in runs])


def _kernel_sieve(p, in_ranks, own_ranks, lo, received, passed):
    """The sieve of a syzygy step: its x is M_d, the degree-d map of the step
    before, and the new generators are basis rows of K_d = ker M_d that lie
    outside R_1 * K_{d-1} (the columns of N_d) plus the rows before them.

    `in_ranks[d - lo]` gets the rank of M_d, its column count less dim K_d,
    and `own_ranks[d - lo]` the rank of N_d: the pivots of the sieve's
    elimination plus the new generators, which are independent modulo the
    older columns (each is the only one nonzero at its own free column, and
    none after it). A map between two stages is thus recorded by both, with
    equal numbers. Where M_d has no columns (the step before has a zero
    degree-d piece) there is no kernel, no new generator and no elimination,
    and both ranks stay 0.

    The kernel is taken only where a generator may be born. The recorded
    `in_ranks[d - lo]` never exceeds rank M_d: the sieve before wrote it as
    its own rank, of this very matrix (step 1's `_pivot_sieve` at the
    degrees where it has presentation columns), and where nothing wrote it
    (step 2 at the other degrees, and the tail maps a stage builds after its
    `incoming` has ended, which have no rows) it is 0. And R_1 * K_{d-1}
    lies in K_d, so rank N_d <= dim K_d <= cols - recorded. When the two
    ends are equal, the recorded rank is the true one and K_d is the span of
    N_d: there is no new generator, and rank N_d is the count of its last
    entries.

    `linalg._kernel_rows` reduces one forward pass of M_d at the kept free
    columns alone. Each dense N_d is eliminated once: where the sieve has a
    next stage (`passed` is a dict), `linalg._last_entries` may keep its
    echelon form in `passed[d]`, and the next sieve pops it from `received`
    at degree d, used or not, as the forward pass of M_d = [N_d | G], G the
    generators that stage added, independent modulo the columns of N_d.
    """

    def sieve(mat, x, d):
        handed = received.pop(d, None)
        if not x.shape[1]:
            return _NO_ROWS
        spanned, echelon = _last_entries(mat, p, passed is not None)
        if echelon is not None:
            passed[d] = echelon
        if x.shape[1] - in_ranks[d - lo] == spanned.sum():
            # N_d spans K_d
            own_ranks[d - lo] = spanned.sum()
            return _NO_ROWS
        # The kernel basis row of a free column F (`_kernel_rows`) has F as
        # its last nonzero entry (the reduced echelon form is 0 at F in every
        # pivot row after F). It lies in R_1 * K_{d-1} plus the rows before
        # it exactly when F is the last nonzero entry of a vector of
        # R_1 * K_{d-1}: the choice an incremental echelon fed the products
        # and then the rows in order would make. Only the other rows are built.
        new, in_ranks[d - lo] = _kernel_rows(x, p, ~spanned, handed)
        own_ranks[d - lo] = spanned.sum() + len(new)
        return new

    return sieve


def _keep_all(_mat, rows, _d):
    """The sieve of a rebuilt step: every stored row is a generator."""
    return rows


# ------------------------------------------------------------- Betti tables


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{ij} within the window i <= i_max, j <= d_max;
    presentation_cut: some beta_{1j} with j > d_max is nonzero (not in the JSON)."""

    entries: dict[tuple[int, int], int]
    i_max: int
    d_max: int
    presentation_cut: bool = False

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(c for (k, _j), c in self.entries.items() if k == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.i_max + 1)]

    def has_frontier_entries(self) -> bool:
        """True when some entry sits on the degree frontier j = d_max."""
        return any(j >= self.d_max for (_i, j) in self.entries)

    def regularity_candidate(self) -> int | None:
        if not self.entries:
            return None
        return max(j - i for (i, j) in self.entries)

    def is_empty(self) -> bool:
        return not self.entries

    def to_json(self) -> dict:
        return {
            "entries": {f"{i},{j}": c for (i, j), c in sorted(self.entries.items())},
            "imax": self.i_max,
            "dmax": self.d_max,
            "totals": self.totals(),
            "frontier": self.has_frontier_entries(),
        }

    def render_text(self) -> str:
        """Triangular layout: rows are j - i, columns are homological degree i."""
        if not self.entries:
            return "0\n"
        imax = max(i for (i, _j) in self.entries)
        rows = sorted({j - i for (i, j) in self.entries})
        width = max(
            [len(str(c)) for c in self.entries.values()]
            + [len(str(i)) for i in range(imax + 1)]
        )
        label_w = max(len(f"{r}:") for r in rows + ["total:"])
        lines = []
        header = " " * label_w + " " + " ".join(
            str(i).rjust(width) for i in range(imax + 1)
        )
        lines.append(header.rstrip())
        for r in rows:
            cells = []
            for i in range(imax + 1):
                c = self.entries.get((i, i + r), 0)
                cells.append((str(c) if c else ".").rjust(width))
            lines.append((f"{r}:".rjust(label_w) + " " + " ".join(cells)).rstrip())
        cells = [str(self.total(i)).rjust(width) for i in range(imax + 1)]
        lines.append(("total:".rjust(label_w) + " " + " ".join(cells)).rstrip())
        return "\n".join(lines) + "\n"


def betti_table(res: Resolution) -> BettiTable:
    return res.betti()


# ------------------------------------------------------------- regularity


@dataclass(frozen=True)
class RegularityVerdict:
    """Castelnuovo-Mumford regularity within explicit bounds.

    kind 'Exact' is only claimed for terminating resolutions (zero or free
    modules) with no presentation column outside the window; 'AtLeast' when
    the truncation frontier or such a column leaves the sup genuinely
    ambiguous; 'UpToBounds' otherwise.
    """

    kind: str
    value: int | None
    i_max: int
    d_max: int

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "bounds": {"imax": self.i_max, "dmax": self.d_max},
        }


def regularity_verdict(table: BettiTable) -> RegularityVerdict:
    if table.is_empty():
        return RegularityVerdict("Exact", None, table.i_max, table.d_max)
    r = table.regularity_candidate()
    top_step = max(i for (i, _j) in table.entries)
    if top_step == 0 and not table.presentation_cut:
        # free module: the resolution terminates at F_0
        return RegularityVerdict("Exact", r, table.i_max, table.d_max)
    if table.presentation_cut or table.has_frontier_entries():
        # a column above d_max is a beta_{1j} outside the window
        return RegularityVerdict("AtLeast", r, table.i_max, table.d_max)
    continuing = top_step == table.i_max
    first_attained = min(i for (i, j) in table.entries if j - i == r)
    if continuing and first_attained >= table.i_max - 1:
        return RegularityVerdict("AtLeast", r, table.i_max, table.d_max)
    return RegularityVerdict("UpToBounds", r, table.i_max, table.d_max)


# ------------------------------------------------------------- linear part


def linear_part(res: Resolution) -> FreeComplex:
    """Keep only the degree-1 components of the differential entries.

    The result is automatically a complex: a composite entry of two linear
    matrices is the degree-2 layer of the corresponding entry of d o d = 0,
    and no degree-0 entries exist by minimality. A step with no nonzero
    non-linear entry is the resolution's own step: its matrices and recorded
    ranks are shared, not copied.
    """
    blocks, ranks = [], {}
    for i, step in enumerate(res.blocks, start=1):
        target = res.free_shifts[i - 1]
        lin, changed = {}, False
        for d, mat in step.items():
            # a degree-d column's entry in a block of shift s has degree d - s
            other = _coordinate_shifts(res.ring, target, d) != d - 1
            if mat[:, other].any():
                mat = mat.copy()
                mat[:, other] = 0
                changed = True
            lin[d] = mat
        blocks.append(lin)
        if not changed and i in res._ranks:
            ranks[i] = res._ranks[i]
    part = FreeComplex(res.ring, list(res.free_shifts), blocks, res.i_max, res.d_max)
    part._ranks.update(ranks)
    return part


def homology_dims(complex_like: FreeComplex, i: int, d: int) -> int:
    """dim_k H_i in internal degree d, by exact ranks of the degree-d maps.

    i = 0 measures the cokernel of the first differential. The ranks of each
    map come from `FreeComplex.map_ranks`: those the resolution recorded, or
    one rebuild per step that has none.
    """
    n_steps = complex_like.length_computed()
    if i < 0 or i > n_steps - 1:
        raise ValueError(f"homological index {i} out of computed range")
    if d > complex_like.d_max:
        raise ValueError(f"degree {d} beyond the trusted window {complex_like.d_max}")
    ring = complex_like.ring
    k = d - min(complex_like.free_shifts[0], default=0)
    if k < 0:
        # every F_i is zero below the lowest shift of F_0
        return 0
    ker_dim = sum(ring.dim_piece(d - s) for s in complex_like.free_shifts[i])
    if i >= 1:
        ker_dim -= int(complex_like.map_ranks(i)[k])
    return ker_dim - int(complex_like.map_ranks(i + 1)[k])


def linear_part_homology(res: Resolution):
    """Lazily yield ((i, d), dim_k H_i(lin F)_d) for every nonzero value with
    1 <= i < i_max and lo <= d <= d_max, by i and then d: lo is the lowest
    generator degree of F_0, below which every F_i is zero."""
    lo = _window_start(res.free_shifts[0], res.d_max)
    lin = linear_part(res)
    for i in range(1, res.i_max):
        for d in range(lo, res.d_max + 1):
            h = homology_dims(lin, i, d)
            if h:
                yield (i, d), h
