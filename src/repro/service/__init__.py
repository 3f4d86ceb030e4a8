"""Service layer: concurrent exploration sessions over shared datasets.

The first subsystem on the path from "reproduction" to "service":
:class:`SessionManager` multiplexes isolated α-investing sessions over
shared immutable datasets (see :mod:`repro.service.manager` for the
sharing/isolation contract) and :class:`ScaleSweep` measures the service
across a (rows × sessions) grid (see :mod:`repro.service.sweep`).
"""

from repro.service.events import EventBroker, Subscription
from repro.service.manager import (
    DEFAULT_TOMBSTONE_LIMIT,
    DecisionRecord,
    ServiceStats,
    SessionManager,
    SessionStats,
)
from repro.service.sweep import TRANSPORTS, ScaleSweep, SweepCell, append_record

__all__ = [
    "DEFAULT_TOMBSTONE_LIMIT",
    "DecisionRecord",
    "EventBroker",
    "ServiceStats",
    "SessionManager",
    "SessionStats",
    "Subscription",
    "TRANSPORTS",
    "ScaleSweep",
    "SweepCell",
    "append_record",
]
