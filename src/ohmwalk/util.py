"""Small helpers used by several modules."""
from __future__ import annotations

from contextlib import contextmanager

from .errors import SystemTooLarge

# Defaults shared by the CLI and the layers, kept here so that reading them
# loads neither the simulator nor the replayer.
DEFAULT_STEP_CAP = 10**7
DEFAULT_TOLERANCE = 1e-9


def rel_err(a: float, b: float) -> float:
    """Relative error |a - b| / max(1, |a|, |b|).

    The max(1, .) floor keeps the measure meaningful when both values
    sit near zero.
    """
    return abs(a - b) / max(1.0, abs(a), abs(b))


@contextmanager
def sized(nbytes: int, task: str, storage: str):
    """Turn running out of memory inside the block into SystemTooLarge, naming
    nbytes, the ``storage`` that ``task`` was sized at beforehand."""
    try:
        yield
    except MemoryError:
        raise SystemTooLarge(f"{task} needs {nbytes / 2**20:.1f} MiB of {storage}, "
                             "more than could be allocated") from None
