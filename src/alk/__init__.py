"""Arithmetic of theta invariants, adelic box counting, torus invariant
theory on GL4, and entropy thresholds for homogeneous toral sets."""

from .arakelov import (
    EuclideanLattice,
    HermitianLineBundle,
    ThetaReport,
    adeg,
    bundle_theta_and_h0ar,
    canonical_bundle,
    direct_image,
    dual_bundle,
    euclidean_lattice,
    make_bundle,
    tensor_bundle,
    theta_bounds,
    theta_invariants_euclidean,
    trivial_bundle,
)
from .boxcount import (
    RadiusFamily,
    count_box,
    count_box_naive,
    counting_bound_check,
    make_radius_family,
    norm_of_family,
)
from .enumeration import KERNEL_NAME, BudgetExceeded
from .git4 import (
    BowenBall,
    EntropyData,
    InvariantProfile,
    block_membership_test,
    bowen_membership,
    bowen_membership_loop,
    content_vanishing_detector,
    entropy_quantities,
    galois_structures,
    pattern_and_relation_check,
    psi_invariants,
    regular_embedding,
    tau_window,
)
from .localgeom import (
    LocalCoords,
    LocalQuadExt,
    QuadTorus,
    block_coordinates_gl4,
    different_and_orders,
    integrality_checks,
    local_coords,
    norm_index,
    normalizer_coset_rep,
    orbital_measure_split,
    psi_invariant,
    psi_invariant_arch,
    reconstruct,
    standard_torus,
)
from .numfield import (
    FieldTower,
    FracIdeal,
    Place,
    QuadField,
    content,
    finite_places,
    infinite_places,
    make_quad_field,
    make_tower,
    place_data,
)
from .quartics import (
    biquadratic_tower,
    dihedral_tower,
    gaussian_period_tower,
    sqrt2plus_tower,
    zeta5_tower,
)
from .toralsets import (
    ToralSetDescriptor,
    arch_disc,
    classify_galois_type,
    cyclic_disc_check,
    divisor_bound_check,
    linnik_rhs,
    linnik_rhs_special,
    make_descriptor,
    nonarch_and_global_disc,
)

__version__ = "0.1.0"
