"""Self-healing control plane: WAL replication + site-server failover.

Layers (bottom-up):

- :mod:`repro.recovery.wal` — the deterministic write-ahead log;
- :mod:`repro.recovery.replication` — the active server's log shipper
  and the standby-host replica daemon;
- :mod:`repro.recovery.failover` — server heartbeats and the
  rank-staggered lowest-address-wins failure detector;
- :mod:`repro.recovery.coordinator` — promotion orchestration: the
  two-way log transfer and the execution-state fold.

Entry point for applications is ``VDCE.enable_failover`` on the facade.
"""

from repro.recovery.coordinator import RecoveryCoordinator, SiteFailoverState
from repro.recovery.failover import HeartbeatTracker, ServerHeartbeatDaemon
from repro.recovery.replication import ReplicationShipper, StandbyReplica
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
]
