"""Exception hierarchy for network construction, contraction and simulation."""


class LoopnetError(Exception):
    """Base class for all loopnet errors."""


class InvalidParameter(LoopnetError, ValueError):
    """A numeric argument is outside its valid range or shape."""


class SchemaError(LoopnetError):
    """A network description is malformed; the subclasses name the fault."""


class NonUnitaryBlock(LoopnetError):
    """A scattering block deviates from unitarity beyond TOL_UNITARY."""


class PortCoverageGap(SchemaError):
    """Scattering blocks do not cover every port exactly once."""


class InvalidPortId(SchemaError):
    """A port id is not an integer naming one of the network's N ports."""


class DuplicateConnection(SchemaError):
    """An output or input port appears in more than one connection."""


class PhaseAndDistanceBothGiven(SchemaError):
    """A connection specifies both an explicit phase and a distance."""


class SelfLoopConnection(SchemaError):
    """A connection routes an element back to itself without the opt-in flag."""


class DimensionMismatch(SchemaError):
    """Operator dimensions are inconsistent with the declared local space."""


class NonConvergentLoop(LoopnetError):
    """rho(S W) is not below 1 - DELTA_CONV: the loop is not weak."""


class SingularMatrix(LoopnetError):
    """1 - S W is too ill-conditioned to invert (cond above COND_MAX)."""


class PathExplosion(LoopnetError):
    """Path enumeration exceeded the configured record cap."""


class MissingGeometry(LoopnetError):
    """Port positions or phase velocity required for delays are absent."""


class ScheduleMissing(LoopnetError):
    """A control schedule names a port that carries no coupling."""


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
    """b0 exceeded the subradiant bound exp(-int Gamma_d) by more than 1e-6."""


class MismatchWithGenericGenerator(LoopnetError):
    """The specialized two-qubit generator disagrees with the generic one."""
