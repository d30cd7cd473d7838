"""Linearized polynomials sum_i u_i x^(q^i) and their iterated composition."""

from dataclasses import dataclass

from .fields import FieldContext, FieldElement


@dataclass(frozen=True)
class LinearizedPoly:
    """Coefficients (u_0, ..., u_{k-1}) over one field context; powers step by q."""

    coeffs: tuple
    q: int

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("a linearized polynomial needs at least one coefficient")
        ctx = self.coeffs[0].ctx
        if any(c.ctx != ctx for c in self.coeffs):
            raise ValueError("coefficients from distinct field contexts")
        ctx.validate_subfield(self.q)
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def ctx(self) -> FieldContext:
        return self.coeffs[0].ctx

    def evaluate(self, x: FieldElement) -> FieldElement:
        if x.ctx != self.ctx:
            raise ValueError("argument from a different field context")
        acc = self.ctx.zero
        for i, u in enumerate(self.coeffs):
            acc = acc + u * x.frobenius(i, self.q)
        return acc

    def iterate_evaluate(self, x: FieldElement, j: int) -> FieldElement:
        """j-fold self-composition applied to x; j = 0 is the identity."""
        if j < 0:
            raise ValueError("iteration count must be nonnegative")
        for _ in range(j):
            x = self.evaluate(x)
        return x
