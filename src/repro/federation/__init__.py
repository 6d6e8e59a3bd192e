"""``repro.federation`` — elastic membership for the VDCE federation.

Sites are not a fixed construction-time set: they join, leave, get cut
off by WAN faults, and come back.  This package supplies the
control-plane pieces the facade (``VDCE.enable_membership`` /
``site_join`` / ``site_leave``) wires together:

* :class:`~repro.federation.membership.MembershipDaemon` — one per
  site server: batched heartbeats to every peer, deterministic
  suspicion, the member → quarantined → member (rejoin) / left state
  machine, and a canonical-JSON membership ledger;
* :class:`~repro.federation.membership.Federation` — the aggregated
  view schedulers and admission control consult (usable peers, the
  quarantine filter);
* :class:`~repro.federation.catchup.DirectorySync` — the
  delta-cursor/snapshot directory transfer a rejoining or joining site
  uses to converge its user/tenant directory (raw rows, digest-checked).

See ``docs/federation.md``.
"""

from repro.federation.catchup import DIRECTORY_KINDS, DirectorySync
from repro.federation.membership import (
    Federation,
    MembershipDaemon,
    PeerView,
)

__all__ = [
    "DIRECTORY_KINDS",
    "DirectorySync",
    "Federation",
    "MembershipDaemon",
    "PeerView",
]
