"""Exception hierarchy shared across the package."""


class MsLabError(Exception):
    """Base class for all package-specific failures."""


class PatchEmptyInterior(MsLabError):
    """Oversampling patch has no interior fine DOFs (m and/or r too small)."""


class CoverGap(MsLabError):
    """Some fine node is not covered by any partition-of-unity bump."""


class ChannelOverflow(MsLabError):
    """Requested channel does not fit inside the domain."""


class ParseError(MsLabError):
    """Malformed coefficient file."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)


class EmptySystem(MsLabError):
    """Assembly region has no free DOFs."""


class NotSPD(MsLabError):
    """Matrix expected to be symmetric positive definite is not."""


class DependentConstraints(MsLabError):
    """Constraint vectors of a saddle problem are (numerically) dependent."""


class SingularCoarse(MsLabError):
    """Coarse Galerkin matrix failed the SPD check: a nonpositive or
    rounding-sized Cholesky pivot (degenerate basis)."""


class ConfigError(MsLabError):
    """Invalid or incomplete run configuration."""
