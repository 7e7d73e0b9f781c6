"""A constant description of how the program executes its stages.

Every stage runs inline, in the calling process.  This module remains
only so that tools which report the execution mode alongside their
measurements (``get_runtime().parallel`` and ``.workers``) keep working.
"""

from types import SimpleNamespace

_INLINE = SimpleNamespace(parallel=False, workers=1)


def get_runtime() -> SimpleNamespace:
    """The execution mode: inline, one worker."""
    return _INLINE
