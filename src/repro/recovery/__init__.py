"""Self-healing control plane: WAL replication + site-server failover.

Layers (bottom-up):

- :mod:`repro.recovery.wal` — the deterministic write-ahead log;
- :mod:`repro.recovery.replication` — the active server's log shipper,
  the standby-host replica daemon that holds the shipped log, and the
  promotion-time roll-forward of a repository over that log;
- :mod:`repro.recovery.failover` — server heartbeats and the
  rank-staggered lowest-address-wins failure detector;
- :mod:`repro.recovery.coordinator` — promotion orchestration: the
  two-way log transfer, the roll-forward of the site's snapshot and the
  execution-state fold.

Entry point for applications is ``VDCE.enable_failover`` on the facade.
"""

from repro.recovery.coordinator import RecoveryCoordinator, SiteFailoverState
from repro.recovery.failover import HeartbeatTracker, ServerHeartbeatDaemon
from repro.recovery.replication import (
    ReplicationShipper,
    StandbyReplica,
    roll_forward,
)
from repro.recovery.wal import (
    EXECUTION_KINDS,
    REPOSITORY_KINDS,
    WAL_KINDS,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "EXECUTION_KINDS",
    "REPOSITORY_KINDS",
    "WAL_KINDS",
    "HeartbeatTracker",
    "RecoveryCoordinator",
    "ReplicationShipper",
    "ServerHeartbeatDaemon",
    "SiteFailoverState",
    "StandbyReplica",
    "WalRecord",
    "WriteAheadLog",
    "roll_forward",
]
