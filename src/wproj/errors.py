"""Exception hierarchy shared by all wproj modules.

Every error carries a short machine-readable ``code`` used by the CLI's
JSON error records and its exit-code mapping (parse errors exit 2,
domain errors exit 3).
"""

from __future__ import annotations


class WProjError(Exception):
    """Base class for all wproj errors."""

    code = "error"
    exit_code = 3


class ParseError(WProjError):
    """Malformed textual input (weights, points, polynomials, flags)."""

    code = "parse-error"
    exit_code = 2


# -- domain errors (exit 3) -------------------------------------------------

class ZeroInput(WProjError):
    code = "zero-input"


class AllZero(WProjError):
    code = "all-zero"


class ZeroScalar(WProjError):
    code = "zero-scalar"


class WeightMismatch(WProjError):
    code = "weight-mismatch"


class ArityMismatch(WProjError):
    code = "arity-mismatch"


class NotReduced(WProjError):
    code = "not-reduced"


class IllFormedWeights(WProjError):
    code = "ill-formed-weights"


class ZeroPolynomial(WProjError):
    code = "zero-polynomial"


class MixedDegree(WProjError):
    code = "mixed-degree"


class NonIntegralExponent(WProjError):
    code = "non-integral-exponent"


class NonIntegralValue(WProjError):
    code = "non-integral-value"


class NotNormalized(WProjError):
    code = "not-normalized"


class PointOnSubscheme(WProjError):
    code = "point-on-subscheme"


class PrimeNotDividingM(WProjError):
    code = "prime-not-dividing-m"


class HypothesisViolated(WProjError):
    code = "hypothesis-violated"


class EmptyDomain(WProjError):
    code = "empty-domain"


class DegenerateGenerators(WProjError):
    code = "degenerate-generators"


class FloatOverflow(WProjError):
    code = "float-overflow"


class FactoringBudgetExceeded(WProjError):
    code = "factoring-budget"


class ComparisonBudgetExceeded(WProjError):
    code = "comparison-budget"


class OutputTooLarge(WProjError):
    code = "output-too-large"
