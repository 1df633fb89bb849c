"""Exception types raised by the library.

Every failure mode that callers are expected to branch on gets its own class;
all inherit from WmScatterError so batch drivers can catch the lot.
"""


class WmScatterError(Exception):
    """Base class for all package errors."""


# --- state / grid errors ----------------------------------------------------
class GridMismatch(WmScatterError):
    """Two states do not share the same momentum grid."""


class GridTooNarrow(WmScatterError):
    """A requested Gaussian does not fit inside the grid."""


class GridTooLarge(WmScatterError):
    """A grid would need more nodes than qstate.MAX_POINTS."""


class NonPositiveSigma(WmScatterError):
    """Gaussian width must be strictly positive."""


class NotNormalized(WmScatterError):
    """State norm deviates from 1 beyond tolerance."""


# --- weak-value errors -------------------------------------------------------
class OrthogonalSelection(WmScatterError):
    """Pre/post overlap below threshold; the weak value diverges."""


class NonPositiveLength(WmScatterError):
    """Scattering length / wavelength must be positive."""


class NonPositiveInput(WmScatterError):
    """Generic positivity precondition violated."""


class NonFiniteInput(WmScatterError):
    """An input, or a quantity made from it, is NaN or infinite."""


# --- kinematics errors --------------------------------------------------------
class NonPositiveSpeed(WmScatterError):
    """Neutron speeds must be strictly positive."""


class NonPositiveMass(WmScatterError):
    """Masses must be strictly positive."""


class UnphysicalTOF(WmScatterError):
    """TOF value implies arrival before traversing the incident flight path."""


class NonPositiveK(WmScatterError):
    """Momentum transfer must be strictly positive here."""


# --- analysis errors -----------------------------------------------------------
class EmptyWindow(WmScatterError):
    """Too few usable bins inside the requested fit window."""


class DegeneratePeak(WmScatterError):
    """All counts equal; no peak to locate."""


class InsufficientPoints(WmScatterError):
    """Not enough points for the requested fit."""


class CollinearDegeneracy(WmScatterError):
    """All K values coincide; the mass fit is degenerate."""


class NonConvergence(WmScatterError):
    """Iterative fit failed to converge within its iteration cap."""


class Underdetermined(WmScatterError):
    """More free calibration parameters than constraining peaks."""


class UnknownDetector(WmScatterError):
    """A peak names a detector index the instrument does not have."""


class ParseError(WmScatterError):
    """Malformed row in an ingested file; carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingMetadata(WmScatterError):
    """A file lacks its '#' JSON metadata header, or a spectrum's metadata
    lacks the instrument keys needed to reduce it or holds one that no
    instrument takes."""
