"""Exception types shared across the package.

One class per distinction a caller makes. The CLI maps
`PreconditionViolated` to exit 2, `SolverInternalError` to exit 4 and every
other `TreeSynthError` to exit 1.
"""


class TreeSynthError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(TreeSynthError):
    """An instance document is malformed."""


class InvalidInstance(TreeSynthError):
    """Instance data is malformed: not a tree, a negative length, a terminal
    missing from the tree, a duplicate or self-paired requirement, a bad value."""


class UnknownNode(TreeSynthError):
    """A node, edge or pair is not part of the structure being queried, or
    query arguments are degenerate (equal flow endpoints, an empty or full
    cut side, a split endpoint that does not neighbor the active node)."""


class PreconditionViolated(TreeSynthError):
    """Some tree edge has a cut requirement of 0 or 1, so the formula does not apply.

    Carries `violations`: a list of ((u, v), requirement) pairs in tree edge order.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        detail = ", ".join(
            f"{u}-{v} (cut requirement {r})" for (u, v), r in self.violations
        )
        super().__init__(
            f"every tree edge needs a cut requirement of at least 2; offending: {detail}"
        )


class SolverInternalError(TreeSynthError):
    """An internal invariant failed (no admissible split, residual inner
    degree, a cross-check mismatch); the result cannot be trusted."""


class TooLarge(TreeSynthError):
    """Input exceeds the size guard of an exhaustive routine."""
