"""Message envelopes for the simulated VDCE network.

Every exchange between VDCE daemons — monitor reports, echo packets,
AFG multicasts, resource-allocation-table pushes, inter-task data — is a
:class:`Message`.  The ``kind`` names follow the interactions labelled in
the paper's Figures 2, 6 and 7.
"""

from __future__ import annotations

from typing import Any


# Message kinds used by the Control Manager (paper Figure 6).
LOAD_REPORT = "load-report"            # Monitor -> Group Manager
WORKLOAD_UPDATE = "workload-update"    # Group Manager -> Site Manager
ECHO_REQUEST = "echo-request"          # Group Manager -> host
ECHO_REPLY = "echo-reply"              # host -> Group Manager
HOST_DOWN = "host-down"                # Group Manager -> Site Manager
AFG_MULTICAST = "afg-multicast"        # local Site Manager -> remote sites
HOST_SELECTION_REPLY = "host-selection-reply"  # remote -> local site
ALLOCATION_PUSH = "allocation-push"    # Site Manager -> Group Managers
EXECUTION_REQUEST = "execution-request"  # Group Manager -> App Controller
RESCHEDULE_REQUEST = "reschedule-request"  # App Controller -> Group Manager

# Message kinds used by the Data Manager (paper Figure 7).
CHANNEL_SETUP = "channel-setup"        # Data Manager -> peer proxy
CHANNEL_ACK = "channel-ack"            # proxy -> Application Controller
START_SIGNAL = "start-signal"          # Site Manager -> controllers
TASK_DATA = "task-data"                # proxy -> proxy (inter-task data)

# Message kinds used by the recovery subsystem (repro.recovery): the
# write-ahead log shipped to standby hosts and the server heartbeat the
# standbys watch to decide a failover.
WAL_APPEND = "wal-append"              # Site Manager -> standby replicas
SERVER_HEARTBEAT = "server-heartbeat"  # server -> standby replicas
SERVER_PROMOTED = "server-promoted"    # new server -> standby replicas

# Message kinds used by the federation membership subsystem
# (repro.federation): site-level liveness, elastic join/leave, and the
# directory catch-up transfer a rejoining or joining site performs.
SITE_HEARTBEAT = "site-heartbeat"      # membership daemon -> peer sites
SITE_JOIN = "site-join"                # joining site -> every member
SITE_LEAVE = "site-leave"              # leaving site -> every member
SYNC_REQUEST = "sync-request"          # rejoiner -> up-to-date peer
SYNC_REPLY = "sync-reply"              # peer -> rejoiner (delta/snapshot)


class Message:
    """An addressed, sized unit of communication.

    ``size_bytes`` drives the transfer-time model; control messages are
    small and data messages carry the producing task's output size.
    ``send_time`` is the simulated time of the send.  A slotted record,
    built positionally on the send path; receivers treat it as
    read-only (duplicated deliveries share one instance).
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "send_time")

    def __init__(self, src: str, dst: str, kind: str, payload: Any = None,
                 size_bytes: float = 256.0,  # default control-message size
                 send_time: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.send_time = send_time

    def __repr__(self) -> str:
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"kind={self.kind!r}, payload={self.payload!r}, "
                f"size_bytes={self.size_bytes!r}, "
                f"send_time={self.send_time!r})")
