"""The public names of `cupone`, written out: adding or removing one
changes this list, so the change is reviewed here."""

from types import ModuleType

import cupone

PUBLIC = [
    "BigradedDGA", "CgaPresentation", "Cup1Monomial", "DegreeError", "DgaElement", "DgaMap", "DomainError",
    "FGAbelianGroup", "Face", "GaugeElement", "Generator", "GroupHom", "HypothesisInstance", "ImageTable",
    "IntMatrix", "PreconditionError", "Resolution", "ResolutionMap", "SimplicialComplex", "SizeError",
    "TensorElement", "TwistingElement", "build_DX", "build_resolution", "build_rh_map", "cellular_homology",
    "certify_resolution", "check_hypotheses", "cokernel", "cup1_boundary", "cup1_pair", "enumerate_faces",
    "extend_derivation", "extend_homotopy", "face_boundary", "free_truncated_dga", "gauge_act", "gauge_equivalent",
    "hirsch_expand", "homology", "homotopy_orbit_check", "invariant_factors", "is_injective", "is_twisting",
    "kernel_basis", "normalize_cup1", "push_twisting", "simplicial_cochain_dga", "smith_normal_form", "solve",
    "tensor_dga", "tor", "two_stage_hom_dga", "unitary_group_instance", "word_multiply",
]


def test_the_public_names_are_the_listed_ones():
    # submodules are attributes of the package once imported, and are not names it exports
    names = sorted(n for n, v in vars(cupone).items() if not n.startswith("_") and not isinstance(v, ModuleType))
    assert PUBLIC == sorted(PUBLIC)
    assert names == PUBLIC
