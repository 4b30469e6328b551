"""Exception types shared across the workbench.

The CLI maps these onto exit codes: ParseError family -> 2, precondition
failures -> 3, ScanFailure -> 4.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class ParseError(WorkbenchError):
    """Malformed input file, region spec, or CLI configuration."""


class RegionFrameMissing(ParseError):
    """A cone/cylinder scan region was requested without a certificate frame."""


class PreconditionError(WorkbenchError):
    """A mathematical precondition of an operation does not hold."""


class UnboundedPolytope(PreconditionError):
    pass


class EmptyPolytope(PreconditionError):
    pass


class DegeneratePolytope(PreconditionError):
    pass


class SymmetricInput(PreconditionError):
    pass


class DegenerateFacet(PreconditionError):
    pass


class ParallelDirection(PreconditionError):
    pass


class ConeTooWide(PreconditionError):
    pass


class FrameMismatch(PreconditionError):
    pass


class ZeroVolumeWindow(PreconditionError):
    pass


class MarginVanished(PreconditionError):
    pass


class CertificateMismatch(PreconditionError):
    pass


class ScanFailure(WorkbenchError):
    """A scanned point falsified the certificate parameters (not the lemma)."""
