"""The one import the instrumented layers take on the analysis package.

Non-kernel code (host selection, site manager, replication, network)
reports shared-cell accesses through the module-global :data:`HB` so a
disabled sanitizer costs those paths one module-attribute load and an
identity check — the same PERF001 guard idiom the obs subsystem
uses.  The kernel itself uses ``Environment._hb`` (one slot
load) instead; :class:`~repro.analysis.session.AnalysisSession` keeps
the two in sync.

This module is deliberately import-light (no dependency on the recorder
type) so hot modules can ``import repro.analysis.hooks`` without paying
for the analysis machinery.
"""

from __future__ import annotations

from typing import Any

#: The attached :class:`~repro.analysis.hb.HBRecorder`, or ``None``.
#: Written only by :class:`~repro.analysis.session.AnalysisSession`.
HB: Any = None
