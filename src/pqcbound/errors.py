"""Exception hierarchy: every refusal is one of two types.

ValidationError covers malformed inputs (bad edges, edge masks or vertex
counts, non-permutations, parity mismatches, options a method does not read,
a worker count below 1); the CLI maps these to exit code 2.  GuardViolation
covers feasibility guards (q^f assignments past the guard that keeps the
entropy sum exact, a search past the permutation cap, an isomorphism-class
walk past the largest vertex count measured to finish, a composite field
size); the CLI maps these to exit code 3.  Each message says which check
refused.
"""


class PqcboundError(Exception):
    pass


class ValidationError(PqcboundError):
    pass


class GuardViolation(PqcboundError):
    pass
