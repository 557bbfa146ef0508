"""Exception types raised across the package.

Each class carries the command line's exit code for it as ``exit_code``:
1 for a failed validation or verification, 2 for bad input (usage), and 3,
the base class's default, for a solver failure.
"""


class LvmutError(Exception):
    """Base class for all package errors."""

    exit_code = 3


# model construction and validation
class DimensionMismatch(LvmutError):
    exit_code = 2


class NonPositiveRate(LvmutError):
    exit_code = 2


class NegativeMutation(LvmutError):
    exit_code = 2


class WrongInteractionKind(LvmutError):
    exit_code = 2


# linear algebra
class NotIrreducible(LvmutError):
    exit_code = 2


class NoConvergence(LvmutError):
    pass


class NotSymmetric(LvmutError):
    exit_code = 2


class SingularMatrix(LvmutError):
    pass


# time integration
class StepSizeUnderflow(LvmutError):
    pass


class StepBudgetExceeded(LvmutError):
    pass


class NonFiniteState(LvmutError):
    pass


class ZeroInitialMass(LvmutError):
    exit_code = 2


# equilibrium solvers
class NonPositivePerron(LvmutError):
    pass


class Hypothesis3Violated(LvmutError):
    exit_code = 1


class InnerNoConvergence(LvmutError):
    def __init__(self, s: float, message: str = ""):
        self.s = s
        super().__init__(message or f"Newton iteration stalled at s={s!r}")


class LeftAprioriBox(LvmutError):
    def __init__(self, s: float, message: str = ""):
        self.s = s
        super().__init__(message or f"iterate left the a-priori box at s={s!r}")


# entropy diagnostics
class NonPositiveReference(LvmutError):
    exit_code = 2


class AsymmetricMutation(LvmutError):
    exit_code = 2


class NotStationaryReference(LvmutError):
    exit_code = 1


class TooFewSamples(LvmutError):
    pass


class ZeroReference(LvmutError):
    exit_code = 2


class KernelMismatch(LvmutError):
    exit_code = 1


# analysis
class InsufficientTail(LvmutError):
    pass


class OutOfTheoremScope(LvmutError):
    exit_code = 1
