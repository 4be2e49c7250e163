"""Deterministic fingerprints for configuration dataclasses."""

from __future__ import annotations

import dataclasses
import json
from typing import Any


def canonical_fingerprint(config: Any) -> str:
    """Hash every field of a config dataclass to a short stable hex string.

    Nested dataclasses and tuples serialise as JSON objects and lists with
    sorted keys, so a change to any field's value changes the fingerprint.
    """
    import hashlib  # here, not at the top: it loads OpenSSL, which only this needs
    text = json.dumps(dataclasses.asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
