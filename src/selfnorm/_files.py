"""Atomic text writes for the files the package leaves on disk."""
from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_text_atomic(path, text: str) -> None:
    """Write text to a temporary file beside path, then os.replace it into place.

    A reader sees the old file or the whole new one, never part of a write.
    On failure the temporary file is removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
