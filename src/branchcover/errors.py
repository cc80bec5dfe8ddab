"""Exception types shared across the package.

Bad user input raises an ``InputError`` subclass; a failed internal
cross-check (something that indicates a bug rather than bad input)
raises an ``InternalCheckError`` subclass.  The CLI maps the two
families to distinct exit codes.
"""


class BranchCoverError(Exception):
    pass


class InputError(BranchCoverError):
    pass


class InternalCheckError(BranchCoverError):
    pass


# --- simplicial complexes and stratifications ---

class NonAscendingTuple(InputError):
    pass


class DuplicateSimplex(InputError):
    pass


class MissingFace(InputError):
    pass


class SimplexNotFound(InputError):
    pass


class NotFull(InputError):
    pass


class BadDimension(InputError):
    pass


# --- presentations, monodromy, covers ---

class Disconnected(InputError):
    pass


class BadBasepoint(InputError):
    pass


class RelatorViolated(InputError):
    pass


class MissingGenerator(InputError):
    pass


class NotAPermutation(InputError):
    pass


class SimplexNotInBranchLocus(InputError):
    pass


class DisconnectedPuncturedStar(InputError):
    pass


class BranchNotInCodim2Level(InputError):
    pass


class SingularOutsideBranch(InputError):
    pass


class InsufficientSubdivision(InputError):
    pass


class ChiMismatch(InternalCheckError):
    pass


class BranchingAtHighCodim(InternalCheckError):
    pass


# --- local systems ---

class NotPermutationSystem(InputError):
    pass


class NotASubcomplex(InputError):
    pass


class RankMismatch(InputError):
    pass


class AnchorUnavailable(InputError):
    pass


# --- CLI and fixtures ---

class UnknownFixture(InputError):
    pass


class BadParams(InputError):
    pass


class SpecFileError(InputError):
    pass
