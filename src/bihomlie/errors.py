"""Exception hierarchy shared by all modules."""


class BiHomError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(BiHomError):
    pass


class SingularMatrix(BiHomError):
    pass


class NotLie(BiHomError):
    pass


class NotCommuting(BiHomError):
    pass


class NotAutomorphism(BiHomError):
    pass


class NotRegular(BiHomError):
    pass


class AxiomViolation(BiHomError):
    pass


class NotSemisimple(BiHomError):
    pass


class NotPermuted(BiHomError):
    pass


class IrrationalSplit(BiHomError):
    pass


class NotSimple(BiHomError):
    pass


class NotSplit(BiHomError):
    pass


class SplitUndecided(BiHomError):
    """Splitness could not be decided: a number that must be factored has a
    cofactor beyond the documented factoring bound. Never a "not split"."""


class IrrationalEigenvalues(BiHomError):
    pass


class NotAutomorphismShape(BiHomError):
    pass


class Unmatched(BiHomError):
    pass


class ZeroParameter(BiHomError):
    pass


class ParseError(BiHomError):
    pass
