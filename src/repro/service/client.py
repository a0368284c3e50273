"""Client for the compile service's JSON-lines protocol.

``warpcc submit`` and ``warpcc status`` are thin wrappers around
:class:`ServiceClient`.  Each request opens one connection (requests
are independent; the server is threaded), sends one JSON line, and
reads reply lines — ``wait`` with streaming yields per-function
progress events before the final job document.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional

from ..fabric.wire import ProtocolError, connect_with_backoff, parse_address

#: default service address, overridable per-invocation with --connect
ADDRESS_ENV = "WARPCC_SERVICE"


class ServiceError(Exception):
    """The service replied ``ok: false`` (or the wire broke)."""

    def __init__(self, message: str, reason: str = "error"):
        super().__init__(message)
        self.reason = reason


def resolve_address(address: Optional[str]) -> str:
    """Explicit address, else $WARPCC_SERVICE, else an error."""
    if address:
        return address
    from_env = os.environ.get(ADDRESS_ENV)
    if from_env:
        return from_env
    raise ServiceError(
        "no service address: pass --connect HOST:PORT or set "
        f"${ADDRESS_ENV} (the address 'warpcc serve' printed)",
        reason="no-address",
    )


class ServiceClient:
    """Talks to one ``warpcc serve`` endpoint.

    The initial connect retries with capped exponential backoff +
    jitter: ``warpcc submit`` routinely races ``warpcc serve`` binding
    its socket (scripted startups, CI), and a connection refused inside
    that window is a timing accident, not an answer.  Only refused/reset
    connects are retried; after the budget the last error propagates
    unchanged.  The budget is a pair of class constants no caller
    varies; a test sets them on the instance.
    """

    #: connects tried before the last error propagates
    connect_attempts: int = 6
    #: first backoff step, seconds (doubled per attempt, jittered)
    connect_backoff: float = 0.05

    def __init__(self, address: str, timeout: Optional[float] = 30.0):
        self.host, self.port = parse_address(address)
        self.timeout = timeout

    # -- wire ----------------------------------------------------------

    def _request_lines(self, payload: dict) -> Iterator[dict]:
        """Send one request; yield each reply line as a dict.  A reply
        that breaks the framing (junk, oversized, cut off mid-line) is
        a :class:`ServiceError` carrying the wire reason."""
        conn = connect_with_backoff(
            self.host,
            self.port,
            attempts=self.connect_attempts,
            base=self.connect_backoff,
            timeout=self.timeout,
        )
        try:
            conn.send(payload)
            conn.finish_sending()
            yield from iter(conn.recv, None)
        except ProtocolError as error:
            raise ServiceError(str(error), reason=error.reason)
        finally:
            conn.close()

    def _request(self, payload: dict) -> dict:
        """Send one request; return the single (final) reply."""
        reply = None
        for reply in self._request_lines(payload):
            pass
        if reply is None:
            raise ServiceError("connection closed without a reply")
        return self._checked(reply)

    @staticmethod
    def _checked(reply: dict) -> dict:
        if not reply.get("ok"):
            raise ServiceError(
                reply.get("error", "service error"),
                reason=reply.get("reason", "error"),
            )
        return reply

    # -- operations ----------------------------------------------------

    def ping(self) -> dict:
        return self._request({"op": "ping"})

    def submit(
        self,
        source: str,
        *,
        tenant: str = "default",
        filename: str = "<input>",
        priority: str = "normal",
        opt_level: int = 2,
        cells: int = 10,
    ) -> str:
        """Submit a module; returns the job id (raises
        :class:`ServiceError` with the admission reason on rejection)."""
        reply = self._request(
            {
                "op": "submit",
                "source": source,
                "tenant": tenant,
                "filename": filename,
                "priority": priority,
                "opt_level": opt_level,
                "cells": cells,
            }
        )
        return reply["job"]

    def wait(
        self,
        job_id: str,
        *,
        stream: bool = False,
        on_event: Optional[Callable[[dict], None]] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Block until the job is terminal; returns its final document.

        With ``stream=True`` every lifecycle event ("started",
        "function_done", ...) is passed to ``on_event`` as it happens —
        the per-function progress feed ``run_tasks_streaming`` gives the
        in-process master, re-exported over the wire.
        """
        request = {"op": "wait", "job": job_id, "stream": stream}
        if timeout is not None:
            request["timeout"] = timeout
        final = None
        for reply in self._request_lines(request):
            self._checked(reply)
            if "event" in reply:
                if on_event is not None:
                    on_event(reply["event"])
                continue
            final = reply
        if final is None:
            raise ServiceError("connection closed before job finished")
        return final["job"]

    def submit_and_wait(self, source: str, **kwargs) -> dict:
        on_event = kwargs.pop("on_event", None)
        timeout = kwargs.pop("timeout", None)
        job_id = self.submit(source, **kwargs)
        return self.wait(
            job_id,
            stream=on_event is not None,
            on_event=on_event,
            timeout=timeout,
        )

    def status(
        self,
        job_id: Optional[str] = None,
        *,
        gantt: bool = False,
        width: int = 72,
    ) -> dict:
        request = {"op": "status", "gantt": gantt, "width": width}
        if job_id is not None:
            request["job"] = job_id
        return self._request(request)

    def watch_update(
        self,
        source: str,
        *,
        watch: str = "default",
        filename: str = "<watch>",
        opt_level: int = 2,
        cells: int = 10,
    ) -> dict:
        """Stream one watch-mode edit; the server fingerprints the
        module, diffs it against this watch key's previous snapshot,
        and (capacity permitting) precompiles the changed functions as
        a speculative batch-priority job.  Returns the outcome document
        ({"dirty", "functions", "job", "superseded", "reason", ...})."""
        return self._request(
            {
                "op": "watch",
                "source": source,
                "watch": watch,
                "filename": filename,
                "opt_level": opt_level,
                "cells": cells,
            }
        )

    def cancel(self, job_id: str) -> bool:
        return self._request({"op": "cancel", "job": job_id})["cancelled"]

    def shutdown(self, drain: bool = True) -> dict:
        return self._request({"op": "shutdown", "drain": drain})
