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
from .faces import ElementaryFace, Face, FaceError, all_elementary_faces, enumerate_sub, full_face
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
from .reference import (
    MixedPairError,
    apply_elementary_face,
    classify_pair,
    commute_square,
    graft,
    join_faces,
    operation_vertices,
    unit_tree,
    valid_face_key,
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
    is_operation,
    parse_tree,
    render_tree,
    tree,
    tree_catalog,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
