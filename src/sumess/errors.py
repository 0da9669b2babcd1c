"""Exception types and resource caps.

Every cap is explicit and configurable; hitting one raises a typed error,
nothing is ever silently truncated.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace


class SumEssError(Exception):
    """Base class for all library errors."""


class InvalidModuli(SumEssError):
    """Moduli list is empty or contains an entry < 2."""


class IllFormedGenerator(SumEssError):
    """A generator matrix does not define an additive endomorphism."""


class CapExceeded(SumEssError):
    """Base class for resource-cap errors."""


class ElementCapExceeded(CapExceeded):
    pass


class ActionRingCapExceeded(CapExceeded):
    pass


class LatticeCapExceeded(CapExceeded):
    pass


class UnknownTheoremId(SumEssError):
    """Theorem id is not registered in the catalog."""


class HypothesisNotMet(SumEssError):
    """A checker's standing hypothesis fails for the given module."""


class SpecFileError(SumEssError):
    """Module spec file is malformed; carries path and line for diagnostics."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


@dataclass(frozen=True)
class Caps:
    """Resource bounds. Defaults are sized for desk-scale modules."""

    max_elements: int = 512
    max_action_ring: int = 65536
    max_lattice: int = 100_000


_CAP_KEYS = {
    "elements": "max_elements",
    "action_ring": "max_action_ring",
    "lattice": "max_lattice",
}


def caps_from_env(base: Caps | None = None, env: str | None = None) -> Caps:
    """Parse the SUMESS_CAPS override string.

    Format: comma-separated ``key=value`` pairs with keys elements,
    action_ring, lattice. Unknown keys raise ValueError.
    """
    caps = base or Caps()
    raw = env if env is not None else os.environ.get("SUMESS_CAPS", "")
    raw = raw.strip()
    if not raw:
        return caps
    updates = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad SUMESS_CAPS entry {part!r}: expected key=value")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in _CAP_KEYS:
            raise ValueError(f"bad SUMESS_CAPS key {key!r}: known keys {sorted(_CAP_KEYS)}")
        try:
            num = int(val.strip())
        except ValueError:
            raise ValueError(f"bad SUMESS_CAPS value for {key!r}: {val.strip()!r} is not an integer") from None
        if num < 1:
            raise ValueError(f"bad SUMESS_CAPS value for {key!r}: must be >= 1")
        updates[_CAP_KEYS[key]] = num
    return replace(caps, **updates)
