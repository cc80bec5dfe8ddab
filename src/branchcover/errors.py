"""The two error families of the package.

Bad user input raises ``InputError``; a failed internal cross-check
(something that indicates a bug rather than bad input) raises
``InternalCheckError``.  The CLI maps the two families to exit codes 1
and 3; the message names the failure.
"""


class BranchCoverError(Exception):
    pass


class InputError(BranchCoverError):
    pass


class InternalCheckError(BranchCoverError):
    pass
