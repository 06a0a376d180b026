"""Exception hierarchy. The CLI maps these onto exit codes."""


class QcrbError(Exception):
    """Base class for every error raised by this package."""


# --- configuration / domain (CLI exit code 2) ---

class SchemaError(QcrbError):
    """Config document does not match the expected schema."""


class DomainError(QcrbError):
    """Argument outside the mathematical domain of an operation, or sized past
    the memory or the address space (`matkernel.zeros`)."""


# --- matrix kernel (surface as model errors, CLI exit code 3) ---

class NonFinite(QcrbError):
    """NaN or Inf entry where a finite matrix is required."""


class NonHermitian(QcrbError):
    """Matrix fails the Hermitian precondition."""


class NotPSD(QcrbError):
    """Matrix has a negative eigenvalue beyond the dust threshold."""


# --- model (CLI exit code 3) ---

class NormDrift(QcrbError):
    """State vector norm deviates from 1 beyond tolerance."""


class DegenerateModel(QcrbError):
    """Lifts vanish or are R-linearly dependent."""


class SingularFisher(QcrbError):
    """J^S has an eigenvalue below the dust threshold."""


# --- measurement (CLI exit code 3 unless noted) ---

class NotCommuting(QcrbError):
    """Im X*X exceeds tolerance; no projective measurement realizes these vectors."""


class InfeasibleGram(QcrbError):
    """Optimal-vector completion failed beyond tolerance."""


class NotCoherent(QcrbError):
    """Operation requires a coherent model."""


class NotQuasiClassical(QcrbError):
    """Operation requires a quasi-classical model."""


class SingularWeight(QcrbError):
    """Weight matrix must be strictly positive definite."""


class BadProbability(QcrbError):
    """Outcome probabilities negative or not summing to 1."""


class PreconditionNotMet(QcrbError):
    """Diagnostic op called on an input that does not satisfy its precondition."""


# --- consistency (internal cross-checks; CLI exit code 3) ---

class ConsistencyError(QcrbError):
    """Two independent computations of the same quantity disagree."""


# --- oracle (CLI exit code 4) ---

class NonConvergence(QcrbError):
    """A minimizer stopped short of its convergence target, such as the
    oracle's duality gap within its iteration cap."""

