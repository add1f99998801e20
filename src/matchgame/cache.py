"""Persistent solve-result cache.

Append-only text file, one entry per line:

    <base64 certificate> <max value> <min value> <version>

Lookups scan the whole file (desk scale); the last entry for a
certificate wins.  A write appends one line under an exclusive
``fcntl.flock``, so concurrent writers keep every entry; if the file
ends mid-line (a writer was killed) the new entry starts on a fresh
line.  Reads take a shared lock.  Corrupt lines are skipped with a
warning and never fatal; entries from another solver version are
treated as misses.
"""

from __future__ import annotations

import base64
import binascii
import fcntl
import logging
import os
from dataclasses import dataclass

SOLVER_VERSION = "1"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CacheEntry:
    certificate: bytes
    max_value: int
    min_value: int
    version: str = SOLVER_VERSION


def _parse_line(line: str, lineno: int, path: str) -> CacheEntry | None:
    fields = line.split()
    if len(fields) != 4:
        log.warning("%s:%d: expected 4 fields, got %d; skipped", path, lineno, len(fields))
        return None
    try:
        cert = base64.b64decode(fields[0], validate=True)
        return CacheEntry(cert, int(fields[1]), int(fields[2]), fields[3])
    except (binascii.Error, ValueError):
        log.warning("%s:%d: unreadable cache entry; skipped", path, lineno)
        return None


def _load(path: str) -> list[CacheEntry]:
    if not os.path.exists(path):
        return []
    out = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        fcntl.flock(fh, fcntl.LOCK_SH)
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            entry = _parse_line(line, lineno, path)
            if entry is not None:
                out.append(entry)
    return out


def cache_get(path: str, certificate: bytes) -> CacheEntry | None:
    hit = None
    for entry in _load(path):
        if entry.certificate == certificate and entry.version == SOLVER_VERSION:
            hit = entry
    return hit


def cache_put(path: str, entry: CacheEntry) -> None:
    line = (
        f"{base64.b64encode(entry.certificate).decode('ascii')} "
        f"{entry.max_value} {entry.min_value} {entry.version}\n"
    ).encode("ascii")
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)
