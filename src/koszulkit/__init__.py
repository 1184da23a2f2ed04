"""koszulkit: graded invariants of quotient rings over prime fields.

Groebner bases, Hilbert series, truncated minimal free resolutions, Betti
tables and regularity, linear parts, Koszulness verdicts, and certificate
machinery for Koszul filtrations and Groebner flags.
"""

from .arith import MonomialOrder, Polynomial, PolynomialRing, polynomial_ring
from .groebner import (
    FreeModuleVector,
    GroebnerBasis,
    buchberger,
    colon_ideal,
    normal_form,
    syzygy_basis,
)
from .quotient import (
    GradedModule,
    HilbertSeries,
    QuotientRing,
    cyclic_module,
    free_module,
    graded_piece_basis,
    hilbert_series,
    make_module,
    make_ring,
    residue_field_module,
)
from .resolution import (
    BettiTable,
    RegularityVerdict,
    Resolution,
    betti_table,
    homology_dims,
    linear_part,
    linear_part_homology,
    regularity_verdict,
    resolve,
)
from .koszul import (
    FlagData,
    KoszulVerdict,
    check_factorization,
    koszul_verdict,
    poincare_hilbert_check,
    verdict_transfer_check,
)
from .filtration import (
    FiltrationCertificate,
    FlagCertificate,
    LinearIdeal,
    all_linear_ideals_filtration,
    check_conca_generator,
    check_fitzgerald,
    check_reduction,
    conca_flag,
    minimal_multiplicity_flag,
    search_groebner_flag,
    subsets_filtration,
    verify_groebner_flag,
    verify_koszul_filtration,
)
from .corpus import Fixture, build_fixture, random_module, theorem_suite

__version__ = "0.1.0"
