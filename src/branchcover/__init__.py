"""Branched covers of triangulated stratified spaces over the rationals.

Build branched covers from monodromy data, compute ordinary, twisted and
intersection homology exactly, and verify that the Betti numbers of the
total space split into the intersection homology of the base with
constant coefficients plus the sum-zero kernel system.
"""

from .errors import BranchCoverError, InputError, InternalCheckError
from .simplicial import (
    SimplicialComplex,
    validate_complex,
    components,
    betti_numbers,
    full_subcomplex,
    is_full,
)
from .stratified import StratifiedComplex
from .presentation import EdgePathPresentation, edge_path_presentation
from .covering import (
    MonodromyRep,
    BranchedCoverSpec,
    CoverComplex,
    validate_monodromy,
    fox_complete,
    local_monodromy_group,
    complement_connectivity_check,
    riemann_hurwitz_check,
    refine_stratification,
)
from .local_systems import (
    LocalSystemQ,
    kernel_system,
    pushforward_local_system,
    twisted_betti,
)
from .intersection import (
    Perversity,
    lower_middle,
    upper_middle,
    zero_perversity,
    top_perversity,
    ih_betti,
)
from .verify import (
    DecompositionReport,
    verify_branched,
    fiber_rank_report,
)

__version__ = "0.1.0"
