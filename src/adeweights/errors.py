"""Exceptions shared across the package."""


class InvalidParameter(ValueError):
    """Dynkin family/parameter combination outside the supported range."""


class SingularSystem(ArithmeticError):
    """The weight system is degenerate; cannot happen for ADE inputs."""


class NonPolynomialResult(ArithmeticError):
    """A normalization that must clear to a polynomial failed to do so."""


class NotRational(ArithmeticError):
    """A cyclotomic value expected to collapse to Q has irrational residue."""


class ClosureOverflow(RuntimeError):
    """Group closure exceeded twice the expected order (bad generators)."""


class ValidationFailed(ValueError):
    """A computed object breaks a relation the theory guarantees: a character
    table relation, a group order or class count, or an integrality."""


class NoIsomorphism(RuntimeError):
    """No node bijection matches the McKay matrix to the affine graph."""
