"""Server-push event channel: per-session broadcast of gauge/decision events.

The paper's UI keeps an α-wealth gauge on screen (Fig. 2); with a wire
boundary in between, v1 clients had to *poll* the ``wealth`` verb after
every gesture.  This module is the transport-agnostic half of the v2
push channel: :class:`SessionManager` publishes an event for every
decision-log append (and a ``gauge`` event for every wealth-spending
show), and any number of subscribers per session consume them in
publication order.  The HTTP layer (``GET /v1/events/{session}``) turns
a subscription into an SSE stream; in-process consumers (tests, notebook
tooling) iterate the subscription directly.

Delivery contract:

* events for one session are delivered to each subscriber **in the order
  they were published** (publication happens under the session lock, so
  the order matches the decision log);
* queues are bounded: a subscriber that stops draining loses the
  *newest* events (counted in :attr:`Subscription.dropped`) rather than
  blocking the publisher — a slow dashboard must never stall an analyst;
* closing a session (or evicting it) publishes a terminal ``end`` event
  and detaches every subscriber, so streams always terminate cleanly.
"""

from __future__ import annotations

import queue
from typing import Any, Iterator, Mapping

from repro.locks import make_lock

__all__ = ["Subscription", "EventBroker", "END_EVENT_TYPE"]

#: ``event["type"]`` of the terminal event a closing session publishes.
END_EVENT_TYPE = "end"

#: Default per-subscriber queue bound.
DEFAULT_QUEUE_SIZE = 1024


class Subscription:
    """One subscriber's bounded event queue for one session.

    Iterate it to consume events until the terminal ``end`` event (the
    iterator yields the ``end`` event itself, then stops), or call
    :meth:`get` for timeout-controlled pulls.
    """

    def __init__(self, broker: "EventBroker", session_id: str,
                 maxsize: int = DEFAULT_QUEUE_SIZE) -> None:
        self.session_id = session_id
        self.dropped = 0
        self._broker = broker
        self._queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self._closed = False
        # Guards the _closed transition: a consumer-side close() racing
        # the broker's close_session() must produce exactly one terminal
        # event, whichever thread wins the flip.
        self._close_lock = make_lock("events.subscription")

    def _offer(self, event: Mapping[str, Any]) -> None:
        try:
            self._queue.put_nowait(dict(event))
        except queue.Full:
            self.dropped += 1

    def _offer_terminal(self, event: Mapping[str, Any]) -> None:
        """Deliver the terminal ``end`` event even to a full queue.

        Ordinary events may be dropped under backpressure, but the
        terminal event is what ends iteration — dropping it would leave
        the subscriber (and its SSE connection) waiting forever, so it
        evicts the oldest buffered event to make room if it must.
        """
        while True:
            try:
                self._queue.put_nowait(dict(event))
                return
            except queue.Full:
                try:
                    self._queue.get_nowait()
                    self.dropped += 1
                except queue.Empty:  # racing consumer drained it: retry
                    continue

    def get(self, timeout: float | None = None) -> dict:
        """Next event, blocking up to *timeout* seconds.

        Raises :class:`queue.Empty` on timeout — the HTTP layer uses that
        as its heartbeat tick.
        """
        return self._queue.get(timeout=timeout)

    def pending(self) -> int:
        """Events currently buffered (approximate, like ``Queue.qsize``)."""
        return self._queue.qsize()

    def _terminate(self, event: Mapping[str, Any]) -> bool:
        """Atomically flip to closed and enqueue the terminal event.

        Returns False (enqueuing nothing) if another thread already
        terminated this subscription — one stream, one ``end``.
        """
        with self._close_lock:
            if self._closed:
                return False
            self._closed = True
        self._offer_terminal(event)
        return True

    def close(self) -> None:
        """Detach from the broker and unblock any parked consumer.

        Idempotent.  Closing must enqueue the terminal ``end`` event
        itself: a consumer thread parked in :meth:`get` / ``__iter__``
        blocks on the queue with no timeout, so detaching alone would
        leave it waiting forever for an event that can no longer arrive.
        """
        self._broker._detach(self)
        self._terminate({
            "type": END_EVENT_TYPE,
            "session_id": self.session_id,
            "reason": "unsubscribed",
        })

    def __iter__(self) -> Iterator[dict]:
        while True:
            event = self._queue.get()
            yield event
            if event.get("type") == END_EVENT_TYPE:
                return

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EventBroker:
    """Fan-out registry: ``publish(session, event)`` → every subscriber.

    Publishing to a session nobody watches is O(1) (one dict probe under
    the broker lock), so the hot show path pays nothing for the feature
    until a client actually subscribes.
    """

    def __init__(self) -> None:
        self._lock = make_lock("events.broker")
        self._subscribers: dict[str, list[Subscription]] = {}
        self.published = 0

    def subscribe(self, session_id: str,
                  maxsize: int = DEFAULT_QUEUE_SIZE) -> Subscription:
        """Attach a new subscriber to *session_id* (session need not exist
        yet — the caller decides whether to validate first)."""
        sub = Subscription(self, session_id, maxsize=maxsize)
        with self._lock:
            self._subscribers.setdefault(session_id, []).append(sub)
        return sub

    def _detach(self, sub: Subscription) -> None:
        with self._lock:
            subs = self._subscribers.get(sub.session_id)
            if subs is None:
                return
            try:
                subs.remove(sub)
            except ValueError:
                return
            if not subs:
                del self._subscribers[sub.session_id]

    def publish(self, session_id: str, event: Mapping[str, Any]) -> int:
        """Deliver *event* to every subscriber of *session_id*; returns the
        number of subscribers it reached."""
        with self._lock:
            subs = list(self._subscribers.get(session_id, ()))
        if not subs:
            return 0
        self.published += 1
        for sub in subs:
            sub._offer(event)
        return len(subs)

    def close_session(self, session_id: str, reason: str = "closed") -> int:
        """Publish the terminal ``end`` event and detach all subscribers."""
        event = {"type": END_EVENT_TYPE, "session_id": session_id,
                 "reason": reason}
        with self._lock:
            subs = self._subscribers.pop(session_id, [])
        for sub in subs:
            sub._terminate(event)
        return len(subs)

    def subscriber_count(self, session_id: str | None = None) -> int:
        """Subscribers on one session, or on every session combined."""
        with self._lock:
            if session_id is not None:
                return len(self._subscribers.get(session_id, ()))
            return sum(len(subs) for subs in self._subscribers.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventBroker(subscribers={self.subscriber_count()})"
