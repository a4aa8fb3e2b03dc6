"""Secret sharing over Z_q.

Clients in the MPC model "secret share (or partition) their inputs"
(Section 3).  The protocol layer uses additive sharing by default; the
paper notes (footnote 4) that any linear scheme works, so Shamir sharing is
provided as well.
"""

from repro.sharing.additive import share_additive
from repro.sharing.shamir import ShamirSharing, ShamirShare

__all__ = [
    "share_additive",
    "ShamirSharing",
    "ShamirShare",
]
