"""Service layer: concurrent exploration sessions over shared datasets.

The first subsystem on the path from "reproduction" to "service":
:class:`SessionManager` multiplexes isolated α-investing sessions over
shared immutable datasets (see :mod:`repro.service.manager` for the
sharing/isolation contract).
"""

from repro.service.events import EventBroker, Subscription
from repro.service.manager import (
    DEFAULT_TOMBSTONE_LIMIT,
    DecisionRecord,
    ServiceStats,
    SessionManager,
    SessionStats,
)

__all__ = [
    "DEFAULT_TOMBSTONE_LIMIT",
    "DecisionRecord",
    "EventBroker",
    "ServiceStats",
    "SessionManager",
    "SessionStats",
    "Subscription",
]
