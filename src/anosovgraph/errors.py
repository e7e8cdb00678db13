"""Exception types shared across the package, and its cooperative cancellation."""

from contextvars import ContextVar


class GraphInputError(ValueError):
    """Malformed graph text/JSON, loop edges, duplicate vertices, unknown labels."""


class PermutationError(ValueError):
    """Malformed cycle notation or a mapping that is not a bijection on the vertices."""


class NotAnAutomorphism(ValueError):
    """A supplied generator does not map edges onto edges."""


class PreconditionViolation(ValueError):
    """An operation was called outside its documented domain (e.g. a linear map
    that does not stabilize the span of edge wedges)."""


class BoundExceeded(RuntimeError):
    """A configured combinatorial bound (group order, component count) was exceeded."""


class SeedSearchExhausted(RuntimeError):
    """No candidate of `witness.seed_catalog` passed the exact certificate.

    The candidates commute with the stabilizer by construction and the
    certificate alone accepts a seed; the tests find one for every yes cycle
    type on at most 12 points. This is not a proof that no seed exists.
    """

    def __init__(self, message, *, candidates_tried):
        super().__init__(message)
        self.candidates_tried = candidates_tried


class WitnessRefused(RuntimeError):
    """Witness assembly was requested although the decision is not 'yes'."""


class WitnessAssemblyError(RuntimeError):
    """A certificate failed while assembling a witness; names the failing stage."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class OperationCancelled(RuntimeError):
    """Raised by `checkpoint()` when the active cancellation token has fired."""


class CancelToken:
    """Cooperative cancellation for long-running exact computations.

    ``with token:`` makes the token the active one on the current thread
    until the block ends, also by an exception; the long-running kernels
    poll it through `checkpoint()`. Any thread may `cancel()` it. Blocks
    nest, and one token may be active on several threads at once.
    """

    __slots__ = ("_cancelled",)

    def __init__(self):
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def check(self) -> None:
        if self._cancelled:
            raise OperationCancelled("operation cancelled by caller")

    def __enter__(self):
        # the context holds (active token, enclosing frame), so each context unwinds its own nesting
        _active.set((self, _active.get()))
        return self

    def __exit__(self, *exc_info) -> None:
        _active.set(_active.get()[1])


_active = ContextVar("anosovgraph_cancel", default=None)


def checkpoint() -> None:
    """Raise OperationCancelled if the active `CancelToken` has been cancelled; no-op with none active."""
    frame = _active.get()
    if frame is not None:
        frame[0].check()
