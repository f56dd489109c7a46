"""Thread-cap validation for the CLI.

sumrep computes in one thread: its work is Python and NumPy code that a
thread pool only slows down under the interpreter lock.  The CLI still
accepts the cap (``--threads``, SUMREP_THREADS) and validates it once
before any command runs, so existing scripts keep working, but it selects
nothing.
"""

from __future__ import annotations

import os

from .errors import ParameterError

ENV_THREADS = "SUMREP_THREADS"


def resolve_thread_cap(value: int | None = None) -> int:
    """Explicit value, else SUMREP_THREADS, else the CPU count."""
    if value is None:
        env = os.environ.get(ENV_THREADS)
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise ParameterError(f"{ENV_THREADS} is not an integer: {env!r}") from None
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise ParameterError(f"thread cap must be >= 1, got {value}")
    return value
