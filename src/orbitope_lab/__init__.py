"""Exact momentum polytopes and face classification for polar orbits.

The exact layer (rational root systems, Weyl groups, convex hulls, face
descriptors) lives in :mod:`rootsys`, :mod:`weyl`, :mod:`polytope`, and
:mod:`facelab`.  The numeric layer (:mod:`matmodel`) realizes two matrix
models and verifies the exact predictions by sampling.  :mod:`cli` wires
everything into a command-line tool and :mod:`jsonio` renders reports
deterministically.
"""

from . import cli, facelab, jsonio, linalg, matmodel, polytope, rootsys, weyl
from .facelab import (
    BijectionReport,
    FaceDescriptor,
    canonical_beta,
    classify_faces,
    is_x_connected,
    largest_x_connected_subset,
    parabolic_subgroup,
    saturation,
    verify_bijection,
)
from .matmodel import (
    MatrixModel,
    OrbitSample,
    argmax_height,
    ext_face_dim_check,
    hessian_check,
    hessian_closed_form,
    hessian_fd,
    kostant_check,
    local_max_test,
    make_model,
    sample_orbit,
    spectrum_deviation,
    verification_report,
)
from .polytope import (
    PolytopeFace,
    RationalPolytope,
    exposed_face,
    face_lattice,
    faces_up_to_group,
    hull,
    support,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    is_dominant,
    share_closed_chamber,
    wall_set,
)
from .weyl import WeylGroup, generate, orbit, to_dominant

__version__ = "0.1.0"

__all__ = [
    "BijectionReport",
    "FaceDescriptor",
    "MatrixModel",
    "OrbitSample",
    "PolytopeFace",
    "RationalPolytope",
    "RootSystem",
    "WeylGroup",
    "argmax_height",
    "build_root_system",
    "canonical_beta",
    "classify_faces",
    "cli",
    "exposed_face",
    "ext_face_dim_check",
    "face_lattice",
    "faces_up_to_group",
    "facelab",
    "generate",
    "hessian_check",
    "hessian_closed_form",
    "hessian_fd",
    "hull",
    "is_dominant",
    "is_x_connected",
    "jsonio",
    "kostant_check",
    "largest_x_connected_subset",
    "linalg",
    "local_max_test",
    "make_model",
    "matmodel",
    "orbit",
    "parabolic_subgroup",
    "polytope",
    "rootsys",
    "sample_orbit",
    "saturation",
    "share_closed_chamber",
    "spectrum_deviation",
    "support",
    "to_dominant",
    "verification_report",
    "verify_bijection",
    "wall_set",
    "weyl",
    "__version__",
]
