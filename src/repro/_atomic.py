"""Atomic text-file replacement shared by every on-disk writer.

Readers must never see a half-written file, so each writer fills a
private temporary file next to the target and renames it into place.
The temporary name is unique per writer — process *and* thread — so
concurrent writers of one path (two figure-server threads cold-rendering
the same figure, two workers filling one cache entry) never share or
steal each other's temporary file: the last rename wins, intact.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(path: str | Path, text: str) -> Path:
    """Replace *path* with *text* (UTF-8) in one rename; returns *path*.

    The file gets the mode a plain ``open(path, "w")`` would give it.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
