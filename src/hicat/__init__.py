"""Combinatorial models of higher type-A cluster categories.

Builds the module, derived-window, cluster, almost-positive and
restricted-cyclic category models from gapped index tuples, realizes
their d-exangles, constructs the two ideal quotients, and verifies the
equivalence and mutation correspondences exhaustively at desk scale.
"""
from .exangles import (
    ExactnessReport,
    Exangle,
    hom_exactness_report,
    is_complex,
    realize,
)
from .models import (
    CategoryModel,
    ObjectClass,
    almost_positive_model,
    cluster_model,
    derived_model,
    make_model,
    module_model,
    relative_f_model,
)
from .quotients import (
    QuotientModel,
    injproj_ideal,
    projinj_ideal,
    quotient,
)
from .report import VerificationReport
from .rigidity import (
    MutationResult,
    correspondence_check,
    exchange_exangles,
    maximal_rigid,
    mutate,
    tilting_sets,
)
from .tuples import (
    IndexTuple,
    Quiver,
    build_quiver,
    gen_derset_window,
    gen_modset,
    gen_nonconsec,
    intertwines,
    normalize_cyclic,
    shift_cluster,
    shift_derived,
)
from .verify import (
    DEFAULT_GRID,
    grid_points,
    run_theorem,
    sanity_reports,
    verify_equiv_module_ap,
    verify_f_exangles,
    verify_main2,
    verify_model_sanity,
)

__version__ = "0.1.0"
