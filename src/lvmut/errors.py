"""Exception types raised across the package."""


class LvmutError(Exception):
    """Base class for all package errors."""


# model construction and validation
class DimensionMismatch(LvmutError):
    pass


class NonPositiveRate(LvmutError):
    pass


class NegativeMutation(LvmutError):
    pass


class WrongInteractionKind(LvmutError):
    pass


# linear algebra
class NotIrreducible(LvmutError):
    pass


class NoConvergence(LvmutError):
    pass


class NotSymmetric(LvmutError):
    pass


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
    pass


# equilibrium solvers
class NonPositivePerron(LvmutError):
    pass


class Hypothesis3Violated(LvmutError):
    pass


class InnerNoConvergence(LvmutError):
    def __init__(self, s: float, message: str = ""):
        self.s = s
        super().__init__(message or f"fixed-point iteration stalled at s={s!r}")


class LeftAprioriBox(LvmutError):
    def __init__(self, s: float, message: str = ""):
        self.s = s
        super().__init__(message or f"iterate left the a-priori box at s={s!r}")


# entropy diagnostics
class NonPositiveReference(LvmutError):
    pass


class AsymmetricMutation(LvmutError):
    pass


class NotStationaryReference(LvmutError):
    pass


class TooFewSamples(LvmutError):
    pass


class ZeroReference(LvmutError):
    pass


class KernelMismatch(LvmutError):
    pass


# analysis
class InsufficientTail(LvmutError):
    pass


class OutOfTheoremScope(LvmutError):
    pass
