"""Exception types shared across the package."""


class OrigamiLabError(Exception):
    pass


class NotBijective(OrigamiLabError):
    pass


class NotTransitive(OrigamiLabError):
    def __init__(self, unreachable):
        self.unreachable = unreachable
        super().__init__(f"square {unreachable} is unreachable from square 0")


class NotUnimodular(OrigamiLabError):
    pass


class NonPositiveQuotient(OrigamiLabError):
    pass


class OutOfRange(OrigamiLabError):
    pass


class HitsConeVertex(OrigamiLabError):
    """Trace ran into a conical point; carries the truncated trace."""

    def __init__(self, trace, vertex_id):
        self.trace = trace
        self.vertex_id = vertex_id
        super().__init__(f"trajectory hits cone vertex {vertex_id}")


class ConeVertexInInterior(OrigamiLabError):
    pass


class StartOnSingularLeaf(OrigamiLabError):
    pass


class CapTooSmall(OrigamiLabError):
    pass


class ExponentTooSmall(OrigamiLabError):
    pass


class InsufficientSpan(OrigamiLabError):
    pass


class WordTooShort(OrigamiLabError):
    pass


class ParallelToDecomposition(OrigamiLabError):
    pass


class PreconditionViolated(OrigamiLabError):
    pass


class FormatError(OrigamiLabError):
    """An input file does not have its documented layout."""


class InvariantViolated(OrigamiLabError):
    """An internal cross-check failed, so a result would be wrong."""


class GridError(OrigamiLabError):
    """A value left the exact 1/M grid, or would overflow int64 on it."""
