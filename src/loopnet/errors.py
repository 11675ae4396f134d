"""Exception hierarchy for network construction, contraction and simulation."""


class LoopnetError(Exception):
    """Base class for all loopnet errors."""


class InvalidParameter(LoopnetError, ValueError):
    """A numeric argument is outside its valid range or shape."""


class SchemaError(LoopnetError):
    """A network description is malformed; the subclasses name the fault."""


class NonUnitaryBlock(LoopnetError):
    def __init__(self, element_id, deviation):
        self.element_id = element_id
        self.deviation = deviation
        super().__init__(
            f"scattering block {element_id!r} is not unitary "
            f"(max deviation {deviation:.3e})"
        )


class PortCoverageGap(SchemaError):
    """Scattering blocks do not cover every port exactly once."""


class DuplicateConnection(SchemaError):
    """An output or input port appears in more than one connection."""


class PhaseAndDistanceBothGiven(SchemaError):
    """A connection specifies both an explicit phase and a distance."""


class SelfLoopConnection(SchemaError):
    """A connection routes an element back to itself without the opt-in flag."""


class DimensionMismatch(SchemaError):
    """Operator dimensions are inconsistent with the declared local space."""


class NonConvergentLoop(LoopnetError):
    def __init__(self, spectral_radius):
        self.spectral_radius = spectral_radius
        super().__init__(
            f"loop is not weak: spectral radius of S@W is {spectral_radius:.6f}; "
            "the zero-delay contraction is physically invalid"
        )


class SingularMatrix(LoopnetError):
    def __init__(self, condition_number):
        self.condition_number = condition_number
        super().__init__(
            f"1 - S@W is numerically singular (cond ~ {condition_number:.3e})"
        )


class IdentityViolation(LoopnetError):
    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"internal identity violated (residual {residual:.3e})")


class PathExplosion(LoopnetError):
    """Path enumeration exceeded the configured record cap."""


class MissingGeometry(LoopnetError):
    """Port positions or phase velocity required for delays are absent."""


class ScheduleMissing(LoopnetError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no schedule provided for time-dependent control {name!r}")


class StepUnstable(LoopnetError):
    """Trace or Hermiticity drift exceeded 100x tolerance during integration."""


class NotTwoQubitNetwork(LoopnetError):
    """The network does not contain exactly two coupled qubit ports."""


class NetworkNotFound(LoopnetError, RuntimeError):
    """Rejection sampling drew no network inside the requested class."""


class WrongDirectionality(LoopnetError):
    """The channel favours the reverse direction; swap sender and receiver."""


class DegenerateBeta(LoopnetError):
    """No cross-coupling between the qubits; transfer is impossible."""


class InitialConditionMismatch(LoopnetError):
    """Closed-form propagation requires a pure-state initial Bloch vector."""


class BoundViolated(LoopnetError):
    """Population exceeded the subradiant decay bound; implementation bug."""


class MismatchWithGenericGenerator(LoopnetError):
    def __init__(self, residual):
        self.residual = residual
        super().__init__(
            f"specialized two-qubit generator disagrees with the generic "
            f"Lindblad generator (max residual {residual:.3e})"
        )
