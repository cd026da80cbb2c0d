"""Structured JSON logging on the stdlib: the ``repro.*`` logger tree.

The library logs *events*, not prose: every record is one JSON object
per line — ``{"ts", "level", "logger", "event", ...fields}`` — so a
daemon's stderr is grep-able and machine-shippable without a log-parsing
layer.  Everything rides on :mod:`logging`, which keeps the usual
contracts: levels, propagation, and the ability for an embedding
application to install its own handlers instead.

Usage::

    log = get_logger("serve.access")
    slog(log, logging.INFO, "request",
         id=req_id, path="/v1/wfomc", status=200, ms=12.3)

Library discipline: importing :mod:`repro` never configures logging.
The serve daemon calls :func:`configure_logging` at startup so its
access log and the warn-level degradation events (store disabled or
re-enabled, worker crash recovery, compiled-to-direct fallback) come
out as JSON lines; a plain library user sees only stdlib default behavior
(warnings and above via the last-resort stderr handler).

Request ids: :func:`new_request_id` mints the 16-hex-char ids the
daemon generates for requests that do not carry an ``X-Request-Id``
header of their own.
"""

from __future__ import annotations

import json
import logging
import time
import uuid

__all__ = [
    "JsonFormatter",
    "configure_logging",
    "get_logger",
    "new_request_id",
    "slog",
]

#: Root of the library's logger hierarchy.
LOGGER_ROOT = "repro"

#: Attribute marking handlers installed by :func:`configure_logging`,
#: so re-configuration replaces rather than stacks them.
_MANAGED = "_repro_slog_handler"


class JsonFormatter(logging.Formatter):
    """One JSON object per record; extra ``slog`` fields inline."""

    def format(self, record):
        document = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, "slog_fields", None)
        if fields:
            for key, value in fields.items():
                if key not in document:
                    document[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            document["exc_type"] = record.exc_info[0].__name__
            document["exc"] = str(record.exc_info[1])
        return json.dumps(document, default=str)


def get_logger(name=""):
    """A logger under the ``repro`` hierarchy (``""`` for the root)."""
    if not name:
        return logging.getLogger(LOGGER_ROOT)
    return logging.getLogger(LOGGER_ROOT + "." + name)


def slog(logger, level, event, **fields):
    """Emit one structured event; free when the level is disabled."""
    if logger.isEnabledFor(level):
        logger.log(level, event, extra={"slog_fields": fields})


def configure_logging(stream=None, level=logging.INFO):
    """Attach one JSON handler to the ``repro`` logger (idempotent).

    Returns the handler.  Records stop propagating to the root logger
    so a host application's plain-text handlers do not double-print the
    daemon's access log.
    """
    root = get_logger()
    for handler in list(root.handlers):
        if getattr(handler, _MANAGED, False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonFormatter())
    setattr(handler, _MANAGED, True)
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return handler


def new_request_id():
    """A fresh 16-hex-char request id (collision odds are cosmological)."""
    return uuid.uuid4().hex[:16]


def monotonic_ms():
    """Monotonic milliseconds — the daemon's latency arithmetic unit."""
    return time.monotonic() * 1000.0
