"""Exception hierarchy for the referencing toolkit.

All exceptions are message-only (single string constructor argument); pipeline
stages re-raise them with the stage name prefixed to the message, preserving
the concrete type so callers can still dispatch on it.
"""


class FloorRefError(Exception):
    """Base class for every error raised by this package."""


class FrameMismatch(FloorRefError):
    """Transform chain or point application with inconsistent frame tags."""


class LengthMismatch(FloorRefError):
    """Paired point lists of unequal length."""


class DegenerateConfiguration(FloorRefError):
    """Point configuration too degenerate for a well-posed solution."""


class DegenerateMotion(FloorRefError):
    """Robot displacement unusable for heading estimation."""


class DegenerateViewingGeometry(FloorRefError):
    """Camera does not usefully view the plate plane."""


class NonConvergence(FloorRefError):
    """Iterative solver exhausted its iteration budget."""


class InconsistentRuns(FloorRefError):
    """Two referencing runs disagree too much to be averaged."""


class TargetNotVisible(FloorRefError):
    """Calibration target outside the camera view at the given placement."""


class MarkNotVisible(FloorRefError):
    """Floor mark outside the camera view at the given placement."""


class OutOfBounds(FloorRefError):
    """Image point outside the sensor area."""


class EmptyCluster(FloorRefError):
    """Metric requested over an empty measurement set."""


class MetricOverflow(FloorRefError):
    """Cluster metric beyond the float range of its measurements."""


class EmptyInput(FloorRefError):
    """Geometric primitive requested over an empty point set."""


class SchemaError(FloorRefError):
    """Input document does not match its JSON schema."""
