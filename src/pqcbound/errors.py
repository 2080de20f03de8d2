"""Exception hierarchy.

ValidationError covers malformed inputs (bad edges, non-permutations, parity
mismatches).  GuardViolation covers feasibility guards (q^f assignments past
the guard that keeps the entropy sum exact, a search past the permutation
cap, an isomorphism-class walk past the largest vertex count measured to
finish, a composite field size); the CLI maps these to exit code 3.
"""


class PqcboundError(Exception):
    pass


class ValidationError(PqcboundError):
    pass


class GuardViolation(PqcboundError):
    pass


class InvalidEdge(ValidationError):
    pass


class InvalidVertex(ValidationError):
    pass


class EdgeAlreadyConditioned(ValidationError):
    pass


class EdgePresent(ValidationError):
    pass


class DisconnectedGraph(ValidationError):
    pass


class GraphComplete(ValidationError):
    pass


class ParityError(ValidationError):
    pass


class NotAPermutation(ValidationError):
    pass


class DuplicateEdge(ValidationError):
    pass


class InvalidFieldSize(GuardViolation):
    pass


class EnumerationTooLarge(GuardViolation):
    pass


class SearchSpaceTooLarge(GuardViolation):
    pass
