"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (wrong argument shapes, bad call sequences) raises
the usual ValueError / TypeError instead.
"""


class HstabError(Exception):
    """Base class for all package-specific errors."""


class DegeneratePolytope(HstabError):
    """Input points do not span the ambient dimension."""


class NonRationalInput(HstabError):
    """A coordinate could not be interpreted as an exact rational."""


class NotReflexive(HstabError):
    """Operation requires a reflexive polytope and the input is not one."""


class DegenerateSimplex(HstabError):
    """Simplex vertices are affinely dependent (zero volume)."""


class ParseError(HstabError):
    """Malformed input file.

    Carries the 1-based line number when the problem is attributable to a
    specific line of a delimited file.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyDegree(HstabError):
    """A weight table is missing every row for some degree m in 1..m_max."""


class DegreeOutOfRange(HstabError):
    """Requested degree m lies outside the table's 1..m_max range."""


class InsufficientDegrees(HstabError):
    """Asymptotic fit requested on a table with too few degrees."""


class TruncationTooCoarse(HstabError):
    """Character samples are polluted by truncation at every usable t.

    ``required_m_max`` is the smallest table depth at which enough sample
    points become usable for the fit.
    """

    def __init__(self, message, required_m_max):
        super().__init__(message)
        self.required_m_max = required_m_max


class Inconclusive(HstabError):
    """Optimizer did not converge, so the mu supremum is undefined.

    ``status`` carries the optimizer's terminal status string.
    """

    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


class NumericalCheckFailed(HstabError, ArithmeticError):
    """An internal numerical check (a defining identity, the Jensen
    ordering DF >= H) failed beyond its tolerance.

    ``xi`` carries the direction at which the check failed.
    """

    def __init__(self, message, xi):
        super().__init__(message)
        self.xi = xi
