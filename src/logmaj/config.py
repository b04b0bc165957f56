"""Global numeric tolerances, configurable once at startup.

The defaults are picked for the desk scale the library targets (block
dimensions below ten, entries of order one).  They can be replaced
process-wide either through :func:`set_tolerances` before any computation,
or by pointing the ``LOGMAJ_TOLERANCES`` environment variable at a JSON
file of overrides, e.g. ``{"maj": 1e-7}``, which is read on the first
use of the tolerances, not at import; :func:`overridden_tolerances`
replaces them for one ``with`` block only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import os


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used across the library.

    alg     relative tolerance for algebra-level residuals (hermiticity
            checks, eigendecomposition reconstruction, rank cuts)
    maj     tolerance on prefix-integral comparisons, relative to the
            larger total integral; absolute on log-prefix integrals
    norm    relative tolerance for norm evaluations and comparisons
    jordan  absolute tolerance on operator-norm residuals of Jordan checks
    iso     tolerance for isometry analysis checks
    strict  base scale for strictness gaps in SLM checks

    Each is a finite number (not a boolean); anything else raises
    ``ValueError``.
    """

    alg: float = 1e-9
    maj: float = 1e-8
    norm: float = 1e-9
    jordan: float = 1e-8
    iso: float = 1e-8
    strict: float = 1e-12

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"tolerance {field.name} must be a finite number, got {value!r}")


_ENV_VAR = "LOGMAJ_TOLERANCES"


def _load_default() -> Tolerances:
    path = os.environ.get(_ENV_VAR)
    if not path:
        return Tolerances()
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    return Tolerances(**overrides)


# None until the first use reads the ``LOGMAJ_TOLERANCES`` file, so that an
# unreadable or malformed file raises inside the caller (the CLI turns the
# error into exit code 2), not at import
_current: Tolerances | None = None


def tolerances() -> Tolerances:
    """Return the tolerances in effect."""
    global _current
    if _current is None:
        _current = _load_default()
    return _current


def set_tolerances(**overrides: float) -> Tolerances:
    """Replace the tolerances for the rest of the process.

    Intended to be called once, before any computation; library values are
    immutable, so changing tolerances mid-run only affects later calls.
    """
    global _current
    _current = dataclasses.replace(tolerances(), **overrides)
    return _current


@contextlib.contextmanager
def overridden_tolerances(**overrides: float):
    """Apply ``overrides`` until the block exits, then restore the previous
    tolerances, also on error.  The library starts no threads of its own.
    Scopes must nest: the override is one module value that every thread
    sees, so scopes that two threads open and close out of order can leave
    one's overrides behind."""
    global _current
    saved = tolerances()
    _current = dataclasses.replace(saved, **overrides)
    try:
        yield
    finally:
        _current = saved
