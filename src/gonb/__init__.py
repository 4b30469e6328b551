"""Polytope / time-frequency workbench.

Exact-at-desk-scale convex polytope geometry, Fourier transforms of
polytope indicators, STFT analysis of indicator windows, non-vanishing
certificates and orthogonality-violation searches, plus a CLI harness.
"""

from .errors import (
    CertificateMismatch,
    ConeTooWide,
    DegenerateFacet,
    DegeneratePolytope,
    DegenerateSimplex,
    EmptyPolytope,
    FacetNotInPolytope,
    FrameMismatch,
    MarginVanished,
    ParallelDirection,
    ParseError,
    PreconditionError,
    RegionFrameMissing,
    ScanFailure,
    SymmetricInput,
    TooFewPoints,
    UnboundedPolytope,
    WorkbenchError,
    ZeroVolumeWindow,
)
from .fourier import (
    AxisFrame,
    ConeBound,
    ConeRegion,
    ConeScanParams,
    ScanGrid,
    apply_frame,
    cone_constant,
    divergence_residual,
    ft_facet_measure,
    ft_indicator,
    ft_indicator_many,
    ft_indicator_quadrature,
    ft_indicator_quadrature_many,
    ft_simplex,
    sigma_bound,
)
from .gabor import (
    CertificateScanParams,
    NonZeroCertificate,
    NotFound,
    TimeFrequencyPoint,
    TimeFrequencySet,
    ViolationReport,
    build_certificate,
    check_orthogonality,
    covering_radius,
    find_violation_pair,
    lattice_points,
    separation,
    stft_indicator,
    stft_indicator_quadrature,
)
from .polytope import (
    Facet,
    GEOM_TOL,
    HPolytope,
    SymmetryReport,
    facet_hausdorff,
    facets,
    from_vertices,
    hausdorff_distance,
    is_symmetric,
    nonsymmetry_margin,
    normalize,
    parallel_facet,
    persistence_epsilon,
    symmetry_center_oracle,
    translate_intersection,
    triangulate,
    vertices,
    volume,
)

__version__ = "0.1.0"
