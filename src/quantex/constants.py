"""Pinned SI constants table (CODATA 2018).

All dynamics run in natural units (hbar = 1); SI constants enter only
through the gravitational-wave parameter mappings in :mod:`quantex.models`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

# CODATA 2018. h is exact by SI definition; hbar = h / (2 pi).
CODATA_VERSION = "CODATA-2018"
SPEED_OF_LIGHT = 299792458.0            # m / s (exact)
GRAVITATIONAL_CONSTANT = 6.67430e-11    # m^3 / (kg s^2)
PLANCK_CONSTANT = 6.62607015e-34        # J s (exact)
REDUCED_PLANCK = PLANCK_CONSTANT / (2.0 * math.pi)


@dataclass(frozen=True)
class PhysicalConstants:
    """One row of SI constants used by the gravito parameter mappings."""

    c: float
    G: float
    hbar: float
    version: str

    def table_hash(self) -> str:
        """SHA-256 over the canonical serialization of the table."""
        payload = json.dumps(
            {"version": self.version, "c": repr(self.c), "G": repr(self.G),
             "hbar": repr(self.hbar)},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


DEFAULT_CONSTANTS = PhysicalConstants(c=SPEED_OF_LIGHT, G=GRAVITATIONAL_CONSTANT,
                                      hbar=REDUCED_PLANCK, version=CODATA_VERSION)
