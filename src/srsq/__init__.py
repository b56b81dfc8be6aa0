"""srsq: exact desk-scale toolkit for squarefree monomial ideals.

Decides, with exact arithmetic, when the second symbolic power of a
Stanley-Reisner ideal equals the ordinary square, and when the square is
Cohen-Macaulay; ships the homological criteria (Reisner, Stanley, linkwise
diameter conditions) and the degreewise local cohomology scans behind them.
"""

from .complexes import (
    FVector,
    Graph,
    SimplicialComplex,
    complementary_complex,
    complete_graph,
    conjecture_complex,
    conjecture_graph,
    cross_polytope,
    cross_polytope_stellar,
    cycle_complex,
    cycle_graph,
    disjoint_pentagons,
    disjoint_union,
    four_path,
    irrelevant_complex,
    named_complex,
    new_complex,
    path_complex,
    phantom_pentagon,
    rp2,
    simplex_complex,
    void_complex,
)
from .criteria import (
    AuditReport,
    Condition3Result,
    Depth2Result,
    S2Result,
    condition3_check,
    depth2_criterion,
    paper_audit,
    random_pure_complex,
    s2_criterion,
)
from .homology import (
    DEFAULT_FIELDS,
    GF2,
    QQ,
    FieldSpec,
    HomologyMemo,
    HomologyProfile,
    cohen_macaulay_reports,
    gorenstein_reports,
    is_cohen_macaulay,
    is_gorenstein,
    is_locally_gorenstein,
    locally_gorenstein_reports,
    matrix_rank,
    reduced_homology,
)
from .ideals import (
    Monomial,
    MonomialIdeal,
    SpecialTriangle,
    Sym2Result,
    complex_of_ideal,
    edge_ideal,
    in_symbolic_power,
    special_triangles,
    stanley_reisner,
    symbolic2_equals_square,
    symbolic_power,
)
from .takayama import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    DepthReport,
    depth_reports,
    depth_via_takayama,
    square_depth_report,
    square_depth_reports,
    symbolic_square_depth_report,
    symbolic_square_depth_reports,
)

__version__ = "0.1.0"
