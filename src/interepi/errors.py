"""Exception types shared across the package."""


class InterepiError(Exception):
    """Base class for all package-specific errors."""


# --- graph construction / validation -----------------------------------------

class GraphValidationError(InterepiError):
    """An edge list violates the layered-graph invariants."""


class UnknownNode(GraphValidationError):
    pass


class SelfLoop(GraphValidationError):
    pass


class DuplicateEdge(GraphValidationError):
    pass


class CrossLayerColorMismatch(GraphValidationError):
    pass


# --- structural statistics ----------------------------------------------------

class NoEdgesInScope(InterepiError):
    """kappa requested on a subgraph that has no edges."""


class NotTwoLayers(InterepiError):
    """Operation defined only for two-layer networks."""


# --- generators ---------------------------------------------------------------

class MeanDegreeTooLarge(InterepiError):
    """Requested edge count exceeds the number of available node pairs."""


class WiringFailed(InterepiError):
    """Configuration-model wiring did not produce a simple graph within budget."""


# --- threshold analysis -------------------------------------------------------

class DomainError(InterepiError):
    """Scalar argument outside its documented range."""


class KappaAtMostOne(InterepiError):
    """Single-layer threshold is undefined for kappa <= 1."""


class ExponentSingularity(InterepiError):
    """Power-law moment formula hits a removable singularity (gamma in {2, 3})."""


class NonConvergence(InterepiError):
    """The eigenvalue computation behind a Perron root did not converge."""


class EmptyColor(InterepiError):
    """A color carries no edges where at least one is required."""


class LengthMismatch(InterepiError):
    """Rate tuples of different lengths were compared."""


# --- simulation ---------------------------------------------------------------

class ZeroGcc(InterepiError):
    """Infection density requested against a layer without edges."""


# --- files and configuration --------------------------------------------------

class ParseError(InterepiError):
    """Malformed graph file; message carries the line number."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ConfigError(InterepiError):
    """Invalid or incomplete experiment configuration."""
