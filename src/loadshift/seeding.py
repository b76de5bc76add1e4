"""Named seed derivation.

All randomness in a run flows from one master seed. Components ask for a
derived seed by (label, index) so any single piece of a run (one sweep
row, one training shuffle) can be reproduced on its own without
replaying everything before it.
"""

import hashlib

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Stable 64-bit seed for the component named by (label, index)."""
    digest = hashlib.sha256(f"{master_seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & _MASK64
