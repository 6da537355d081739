"""Combinatorics of trees, faces and horn-filling certificates for
dendroidal sets: tree grammar, face posets, planar orders, shuffles of
tensors, extension sets, and independently replayable anodyne-extension
certificates."""

from .anodyne import (
    AxiomError,
    ExtensionSet,
    build_filtration,
    canonical_extensions,
    check_axioms,
    inner_extension_set,
    segal_certificate,
)
from .certify import Certificate, Step, mutate_and_check, replay_certificate
from .complexes import (
    FaceComplex,
    TensorAmbient,
    boundary_complex,
    full_complex,
    horn_complex,
    segal_core,
)
from .faces import (
    ElementaryFace,
    Face,
    FaceError,
    MixedPairError,
    all_elementary_faces,
    apply_elementary_face,
    classify_pair,
    commute_square,
    enumerate_sub,
    full_face,
    join_faces,
    valid_face_key,
)
from .order import CorollaBottomPairError, EdgeOrder, compare_face_maps, compare_operations, edge_order
from .pushout import (
    EssentialData,
    InadmissiblePairError,
    PPContext,
    black_root_extension_set,
    certify_pp_inner,
    certify_pp_stable,
    essential_data,
    white_root_extension_set,
)
from .shuffles import (
    PercolationPoset,
    Shuffle,
    brute_force_shuffles,
    enumerate_shuffles,
    initial_shuffle,
    percolation_successors,
)
from .trees import (
    Operation,
    PlanarTree,
    Tree,
    TreeError,
    TreeParseError,
    classify,
    graft,
    is_operation,
    operation_vertices,
    parse_tree,
    render_tree,
    tree,
    tree_catalog,
    unit_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
