"""Truncated minimal graded free resolutions, Betti tables, regularity,
linear parts and graded-piece homology.

The engine is exact linear algebra over F_p, one internal degree at a time,
for all steps together. Each step is a stage that yields its degree-d map
N_d to the next step's stage, as that stage's M_d. Step 1
(`groebner._generator_stage`) sieves the presentation columns; each later
step (`_syzygy_stage`) sieves the kernel K_d of M_d, the degree-d syzygies.
Both build N_d from N_{d-1} over their generators of degrees < d, so its
columns span R_1 times the degree d-1 part, and one elimination on N_d
settles the graded Nakayama sieve; the new generators are then appended to
N_d. So each step's degree map is built once and serves both its own sieve
and the next kernel. Every entry of every recorded differential is
therefore trustworthy for internal degrees <= d_max, and minimality
(entries in the maximal ideal) holds by construction.

A differential is stored as the engine computes it: for each internal degree
d, one int64 matrix whose rows are the step's degree-d generators as
coordinate vectors of the degree-d piece of the target free module, in the
order the sieve keeps them. `FreeModuleVector` columns are built from those
rows only when `differential(i)` is asked for; Betti tables, linear parts
and homology read the matrices.

The rank of every degree-d map is recorded by the stages as they eliminate
it, so homology never ranks a map of a resolution again: a syzygy stage
takes the rank of its incoming M_d from rank-nullity on its kernel, and the
rank of its own N_d from the pivots of its sieve plus the new generators,
which are independent modulo the older columns. A linear part shares the
blocks and ranks of every step whose entries are all linear. Only a map no
syzygy stage eliminated (map 1 when i_max = 1, or a linear-part step that
drops a nonzero entry) is rebuilt and ranked, once, on the first homology
query.

Over monomial rings the large degree maps are at most a few percent
nonzero, so their eliminations (the sieve's `_last_entries` and the
kernels) take the sparse path of `linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groebner import (
    FreeModuleVector,
    _candidate_rows,
    _degree_maps,
    _generator_stage,
    _next_degree_map,
    shift_runs,
    vector_from_coords,
)
from .linalg import _sparse_echelon, _sparse_nonzeros, nullspace, pivot_columns, rank
from .quotient import GradedModule


@dataclass(eq=False)
class FreeComplex:
    """A complex F_0 <- F_1 <- ... of shifted free modules, trusted for
    internal degrees <= d_max.

    free_shifts[i] are the generator degrees of F_i. blocks[i-1] maps each
    internal degree d to the matrix whose rows are the degree-d columns of
    F_i -> F_{i-1}, as coordinate vectors of the degree-d piece of F_{i-1};
    the generators of F_i are these rows in increasing d. Subclasses supply
    `ring`, `free_shifts`, `blocks` and `d_max`.

    _ranks[i] is an int64 array whose entry d - lo, for lo the lowest shift
    of F_0 and lo <= d <= d_max, is the rank of the degree-d map of
    F_i -> F_{i-1} (no map has a lower degree). `resolve` fills it from its
    own eliminations and `linear_part` shares the arrays of the steps it
    leaves unchanged; `map_ranks` fills any other step on demand. Arrays,
    not dicts, so that the ranks add no objects for the cycle collector to
    count.
    """

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
        returned as they are; a step without them is rebuilt by one
        `_degree_maps` pass and ranked on the first call."""
        ranks = self._ranks.get(i)
        if ranks is None:
            lo = min(self.free_shifts[0])
            ranks = self._ranks[i] = np.zeros(max(self.d_max + 1 - lo, 0), dtype=np.int64)
            rows = [row for mat in self.blocks[i - 1].values() for row in mat]
            if rows:
                target, source = self.free_shifts[i - 1], self.free_shifts[i]
                for d, mat in _degree_maps(self.ring, target, source, rows, self.d_max):
                    ranks[d - lo] = rank(mat, self.ring.p)
        return ranks


@dataclass(eq=False)
class Resolution(FreeComplex):
    """Steps of a minimal graded free resolution of `module`, trusted for
    degrees <= d_max."""

    module: GradedModule
    free_shifts: list[tuple[int, ...]]
    blocks: list[dict[int, np.ndarray]]
    i_max: int
    d_max: int
    warnings: list[str] = field(default_factory=list)

    @property
    def ring(self):
        return self.module.ring

    def betti(self) -> "BettiTable":
        entries: dict[tuple[int, int], int] = {}
        for j in self.free_shifts[0]:
            entries[(0, j)] = entries.get((0, j), 0) + 1
        for i, shifts in enumerate(self.free_shifts[1:], start=1):
            for j in shifts:
                entries[(i, j)] = entries.get((i, j), 0) + 1
        return BettiTable(entries, self.i_max, self.d_max)


def resolve(module: GradedModule, i_max: int, d_max: int) -> Resolution:
    """Minimal free resolution of the module out to (i_max, d_max).

    Results are cached on the module (immutable inputs, fill-once cache).
    """
    if i_max < 1 or d_max < 1:
        raise ValueError("resolution bounds must be >= 1")
    cached = module.resolutions.get((i_max, d_max))
    if cached is not None:
        return cached

    ring = module.ring
    warnings: list[str] = []

    if module.is_zero():
        res = Resolution(module, [()], [], i_max, d_max, warnings)
        module.resolutions[(i_max, d_max)] = res
        return res

    # step 1 sieves the presentation columns in the window
    in_window = [c for c in module.columns if (c.internal_degree() or 0) <= d_max]
    if len(in_window) < len(module.columns):
        warnings.append(
            "presentation columns above d_max were dropped; step 1 is "
            "incomplete beyond the degree window"
        )
    if module.columns and not in_window:
        warnings.append("bounds too small to produce step 1")
    candidates = _candidate_rows(ring, module.shifts, in_window, d_max)

    # one stage per step, chained and all run degree by degree: each yields
    # its degree maps to the next; row i-1 of ranks collects the degree
    # ranks of map i, laid out as FreeComplex._ranks
    lo = min(module.shifts)
    ranks = np.zeros((i_max, max(d_max + 1 - lo, 0)), dtype=np.int64)
    blocks: list[dict[int, np.ndarray]] = [{}]
    maps = _generator_stage(ring, module.shifts, candidates, d_max, blocks[0])
    for i in range(2, i_max + 1):
        blocks.append({})
        maps = _syzygy_stage(ring, blocks[-2], maps, blocks[-1], ranks[i - 2], ranks[i - 1], lo)
    for _d, _mat in maps:
        pass

    free_shifts = [module.shifts]
    for step in blocks:
        # minimality: no degree-d column has a nonzero constant entry, that
        # is, a nonzero coordinate in a target block of shift d
        for d, mat in step.items():
            if mat[:, _coordinate_shifts(ring, free_shifts[-1], d) == d].any():
                raise AssertionError("non-minimal differential entry")
        free_shifts.append(_shifts(step))
    res = Resolution(module, free_shifts, blocks, i_max, d_max, warnings)
    if i_max >= 2:
        # with no syzygy stage, map 1 was never ranked
        res._ranks.update(enumerate(ranks, start=1))
    module.resolutions[(i_max, d_max)] = res
    return res


def _shifts(step):
    """Generator degrees of a step given as {d: matrix of degree-d rows}."""
    return tuple(d for d, mat in step.items() for _row in mat)


def _coordinate_shifts(ring, shifts, d):
    """For each coordinate of the degree-d piece of the free module with the
    given shifts, the shift of the block it lies in."""
    runs = shift_runs(ring, shifts, d - 1)
    return np.repeat([s for s, *_ in runs], [m * high for _s, m, _low, high in runs])


def _syzygy_stage(ring, target, maps, step, in_ranks, own_ranks, lo):
    """One syzygy step of the resolution, run degree by degree.

    `maps` yields (d, M_d), the degree-d maps of the step before, for
    consecutive d; `target` ({d: matrix of degree-d rows}) holds that step's
    generators up to degree d when M_d arrives. The new minimal generators of
    each degree are basis rows of K_d = ker M_d, put in `step[d]` as they
    are found. The stage yields (d, N_d), its own degree-d map, from the
    degree of its first generator on: the next stage's M_d.

    N_d is built from N_{d-1} before the sieve, over the generators of
    degrees < d; by induction its columns span R_1 * K_{d-1}, so the sieve
    takes no products of its own. The new generators are then appended to
    N_d as its generator columns. At the yield the stage holds N_d and
    nothing else of degree d.

    `in_ranks[d - lo]` gets the rank of M_d, its column count less dim K_d,
    and `own_ranks[d - lo]` the rank of N_d: the pivots of the sieve's
    elimination plus the new generators, which are independent modulo the
    older columns (each is the only one nonzero at its own free column, and
    none after it). A map between two stages is thus recorded by both, with
    equal numbers.
    """
    shifts: tuple[int, ...] = ()
    prev = None
    for d, mat in maps:
        prev = _next_degree_map(ring, _shifts(target), shifts, prev, d)
        spanned = _last_entries(prev, ring.p)
        basis = nullspace(mat, ring.p)
        in_ranks[d - lo] = mat.shape[1] - len(basis)
        del mat
        # Row k of the rref kernel basis is 1 at its free column F_k and zero
        # at the other free columns and after F_k. So it lies in R_1 * K_{d-1}
        # plus the rows before it exactly when F_k is the last nonzero entry
        # of a vector of R_1 * K_{d-1}: the choice an incremental echelon fed
        # the products and then the rows in order would make.
        if len(basis):
            free = basis.shape[1] - 1 - np.argmax(basis[:, ::-1] != 0, axis=1)
            new = basis[~spanned[free]]
        else:
            new = basis
        del basis
        if len(new):
            step[d] = new
            shifts += (d,) * len(new)
            prev = np.concatenate([prev, new.T], axis=1)
        if shifts:
            own_ranks[d - lo] = spanned.sum() + len(new)
            yield d, prev


def _last_entries(vectors, p):
    """Mask of the coordinates that are the last nonzero entry of some vector
    in the span of the columns of `vectors`: the pivot columns of the vectors
    as rows, with the coordinates reversed. When `vectors` takes the sparse
    path its nonzeros go to it with the roles swapped, and the reversed
    transpose is never built."""
    n, k = vectors.shape
    last = np.zeros(n, dtype=bool)
    if k:
        nonzeros = _sparse_nonzeros(vectors)
        if nonzeros is None:
            pivots = pivot_columns(vectors[::-1].T, p)
        else:
            rows, cols = nonzeros
            entries = vectors[rows, cols]
            pivots = _sparse_echelon((k, n), cols, n - 1 - rows, entries, p, reduced=False)[1]
        last[n - 1 - np.array(pivots, dtype=np.int64)] = True
    return last


# ------------------------------------------------------------- Betti tables


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{ij} within the window i <= i_max, j <= d_max."""

    entries: dict[tuple[int, int], int]
    i_max: int
    d_max: int

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
    modules); 'AtLeast' when the truncation frontier leaves the sup genuinely
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
    by_step: dict[int, int] = {}
    for (i, j) in table.entries:
        by_step[i] = max(by_step.get(i, -(10**9)), j - i)
    top_step = max(by_step)
    if top_step == 0:
        # free module: the resolution terminates at F_0
        return RegularityVerdict("Exact", r, table.i_max, table.d_max)
    if table.has_frontier_entries():
        return RegularityVerdict("AtLeast", r, table.i_max, table.d_max)
    continuing = top_step == table.i_max
    first_attained = min(i for (i, j) in table.entries if j - i == r)
    if continuing and first_attained >= table.i_max - 1:
        return RegularityVerdict("AtLeast", r, table.i_max, table.d_max)
    return RegularityVerdict("UpToBounds", r, table.i_max, table.d_max)


# ------------------------------------------------------------- linear part


@dataclass(eq=False)
class GradedComplex(FreeComplex):
    """A complex of shifted free modules given by per-degree coordinate
    matrices (see `FreeComplex`)."""

    ring: object
    free_shifts: list[tuple[int, ...]]
    blocks: list[dict[int, np.ndarray]]
    i_max: int
    d_max: int


def linear_part(res: Resolution) -> GradedComplex:
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
    part = GradedComplex(res.ring, list(res.free_shifts), blocks, res.i_max, res.d_max)
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
    k = d - min(complex_like.free_shifts[0])
    if k < 0:
        # every F_i is zero below the lowest shift of F_0
        return 0
    ker_dim = sum(ring.dim_piece(d - s) for s in complex_like.free_shifts[i])
    if i >= 1:
        ker_dim -= int(complex_like.map_ranks(i)[k])
    return ker_dim - int(complex_like.map_ranks(i + 1)[k])
