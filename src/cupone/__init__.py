"""Exact engine for cup-one resolutions, permutohedron cell complexes,
and the gauge calculus of twisting elements, over the integers."""

from .algebra import (
    FreeDGA,
    Generator,
    ImageTable,
    TensorElement,
    check_d_squared,
    extend_derivation,
    word_multiply,
)
from .cup1 import Cup1Monomial, cup1_boundary, cup1_pair, hirsch_expand, normalize_cup1
from .dga import (
    BigradedDGA,
    DgaElement,
    DgaMap,
    SimplicialComplex,
    free_truncated_dga,
    simplicial_cochain_dga,
    tensor_dga,
    two_stage_hom_dga,
)
from .errors import DegreeError, DomainError, PreconditionError, SizeError
from .groups import (
    GroupHom,
    HypothesisInstance,
    check_hypotheses,
    cokernel,
    is_injective,
    tor,
    unitary_group_instance,
)
from .linalg import (
    FGAbelianGroup,
    IntMatrix,
    homology,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
    solve,
)
from .permutohedron import (
    Face,
    cellular_homology,
    enumerate_faces,
    f_vector,
    face_boundary,
    face_of_monomial,
    monomial_of_face,
)
from .resolution import (
    CgaPresentation,
    Resolution,
    ResolutionMap,
    build_resolution,
    build_rh_map,
    certify_resolution,
    extend_homotopy,
)
from .twisting import (
    GaugeElement,
    TwistingElement,
    build_DX,
    gauge_act,
    gauge_equivalent,
    homotopy_orbit_check,
    is_twisting,
    push_twisting,
)

__version__ = "0.1.0"
