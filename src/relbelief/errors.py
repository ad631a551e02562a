"""Exception hierarchy shared across the package."""


class RelBeliefError(Exception):
    """Base class for all package-specific errors."""


class InvariantViolation(RelBeliefError):
    """A constructed value failed one of its documented invariants."""


class ZeroEvidence(RelBeliefError):
    """The observed data has zero probability under every parameter value."""


class UnknownPsi(RelBeliefError, IndexError):
    """A candidate index lies outside the marginal parameter support."""


class InfiniteSampleSpace(RelBeliefError):
    """The operation needs an enumerable sample space but the model only has
    a density callback for a single observed point."""


class SingularDesign(RelBeliefError):
    """Design matrix is rank deficient."""


class QuadratureFailure(RelBeliefError):
    """Adaptive quadrature did not reach the requested tolerance."""


class ZeroBinMass(RelBeliefError):
    """A discretization bin received zero prior mass."""


class HypothesisViolated(RelBeliefError):
    """A numerical precondition of a refinement experiment failed.

    The message carries diagnostics (the offending indices or values).
    """


class ModelSpecError(RelBeliefError, ValueError):
    """A model file violates the documented schema.

    ``field`` names the offending entry so command-line validation can point
    at it directly.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
