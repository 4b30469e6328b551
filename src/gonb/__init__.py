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
    EmptyPolytope,
    FrameMismatch,
    MarginVanished,
    ParallelDirection,
    ParseError,
    PreconditionError,
    RegionFrameMissing,
    ScanFailure,
    SymmetricInput,
    UnboundedPolytope,
    WorkbenchError,
    ZeroVolumeWindow,
)
from .fourier import (
    AxisFrame,
    ConeBound,
    ConeScanParams,
    ScanGrid,
    apply_frame,
    divergence_residual,
    ft_facet_measure,
    ft_indicator,
    ft_indicator_quadrature,
    sigma_bound,
)
from .gabor import (
    CertificateScanParams,
    NonZeroCertificate,
    NotFound,
    TimeFrequencySet,
    ViolationReport,
    build_certificate,
    check_orthogonality,
    find_violation_pair,
    lattice_points,
    stft_indicator,
    stft_indicator_quadrature,
)
from .polytope import (
    Facet,
    GEOM_TOL,
    HPolytope,
    SymmetryReport,
    facet_by_normal,
    facets,
    from_vertices,
    hausdorff_distance,
    is_symmetric,
    normalize,
    symmetry_center_oracle,
    translate_intersection,
    triangulate,
    vertices,
    volume,
)

__version__ = "0.1.0"
