"""Exception and warning types shared across the package."""


class OhmwalkError(Exception):
    """Base class for every error this package raises on bad input.

    ``edge`` is the index into build_network's edge list of the entry at
    fault, when one entry is; the edge-list parser turns it into a line.
    """

    edge: int | None = None


class NonPositiveConductance(OhmwalkError):
    """An edge conductance was zero, negative, or not a finite number."""


class SelfLoop(OhmwalkError):
    """An edge connects a vertex to itself."""


class AmbiguousLabel(OhmwalkError):
    """Two labels of different types compare equal (such as 1 and True)."""


class Disconnected(OhmwalkError):
    """The graph is not connected; walk quantities would be undefined."""


class UnknownVertex(OhmwalkError):
    """A vertex label does not belong to the network."""


class SameVertex(OhmwalkError):
    """An operation needing two distinct vertices got the same one twice."""


class SingularSystem(OhmwalkError):
    """A grounded linear system was singular.

    Cannot happen for a validated connected network; seeing this error
    signals a bug, not a bad input.
    """


class NotReversible(OhmwalkError):
    """Transition kernel violates detailed balance against its stationary law."""


class NotIrreducible(OhmwalkError):
    """Transition kernel is not irreducible."""


class HasSelfLoopMass(OhmwalkError):
    """Transition kernel puts positive probability on staying in place."""


class CapExceeded(OhmwalkError):
    """A simulated walk ran past the step cap; the whole estimate is void."""


class ParseError(OhmwalkError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IllConditionedWarning(RuntimeWarning):
    """Grounded system's condition estimate exceeded the trust threshold.

    Results are still returned; extreme conductance ratios are legal
    inputs, so this flags reduced accuracy instead of failing.
    """
