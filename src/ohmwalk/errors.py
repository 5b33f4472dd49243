"""Exception types shared across the package."""


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
    """A grounded solve left the floating-point range.

    The exact layer's elimination never subtracts, so rounding cannot make
    a pivot cancel to 0. A pivot is still 0 when the leak that should
    reach it underflows on the way, and a result overflows past about
    1.8e308 (edges a-b 1e-308 and b-c 1e-308 give R(a, c) = 2e308); a
    pendant of 5e-324 on a triangle does one or the other, depending on
    where its vertex falls in the elimination order. Either raises this,
    naming the range problem, instead of returning 0, inf or nan.
    """


class SystemTooLarge(OhmwalkError):
    """A solve or an estimate needs more memory than could be allocated.

    The exact layer sizes its band storage, and the simulator its per-trial
    samples, before allocating them; running out of memory there raises
    this, naming that size, instead of numpy's MemoryError.
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
    """Malformed edge-list input; carries the 1-based line number, or None
    when no one line is at fault (an input with no edges), and then the
    message names no line."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line

