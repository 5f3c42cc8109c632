"""Exception types raised across the package."""


class DroError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(DroError):
    """Vector or matrix shapes do not agree."""


class StructureMisfit(DimensionMismatch):
    """A family structure read from ``meta`` does not fit the instance."""


class EmptyIntersection(DroError):
    """A data scenario has empty intersection with the support polytope."""


class InvertedInterval(EmptyIntersection):
    """An interval scenario's lower bound exceeds its upper bound."""


class BadCardinality(DroError):
    """Requested selection size is outside [1, n]."""


class MeanOutOfRange(DroError):
    """Requested mean is incompatible with the given standard deviation."""


class OverlappingDecisions(DroError):
    """Historical decisions overlap, so the grouped closed form does not apply."""


class DegenerateDenominator(DroError):
    """The nominal optimum is zero, so the relative loss is undefined."""


class EmptyInput(DroError):
    """An aggregate was requested over an empty collection."""


class UnboundedDecisionVariable(DroError):
    """An integer decision variable lacks a finite upper bound."""


class SolveFailed(RuntimeError):
    """A solve whose optimum the caller needs ended with another status;
    ``status`` holds it."""

    def __init__(self, what: str, status: str):
        self.status = status
        super().__init__(f"{what} failed: {status}")


class InvalidInstance(DroError, ValueError):
    """A problem instance failed validation; ``diagnostics`` lists every finding."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("invalid instance: " + "; ".join(str(d) for d in self.diagnostics))
