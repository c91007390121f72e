"""Registry of public operations, used by the acceptance suite's coverage check.

Every operation of the toolkit registers itself with :func:`track`.  The
acceptance pipeline asserts that a full run has exercised each registered
operation at least once, so no measurement path can silently rot.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, TypeVar

_CALLS: Counter[str] = Counter()
_REGISTERED: set[str] = set()

F = TypeVar("F", bound=Callable)


def track(name: str) -> Callable[[F], F]:
    """Decorator: register *name* as an operation and count its invocations."""

    def deco(fn: F) -> F:
        _REGISTERED.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _CALLS[name] += 1
            return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco


def registered_ops() -> frozenset[str]:
    return frozenset(_REGISTERED)


def uncovered_ops() -> list[str]:
    """Registered operations that have never been invoked in this process."""
    return sorted(op for op in _REGISTERED if _CALLS[op] == 0)


def reset_counts() -> None:
    _CALLS.clear()
