"""Reference config fingerprint: the ``dataclasses.asdict`` form.

:func:`~repro.serve.artifacts.config_fingerprint` builds the same
canonical JSON without ``asdict``'s deep copy; for any experiment
config the two digests must be equal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.core.config import ExperimentConfig

__all__ = ["config_fingerprint_reference"]


def config_fingerprint_reference(config: ExperimentConfig) -> str:
    """SHA-256 over ``json.dumps(dataclasses.asdict(config))``, keys sorted."""
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=list
    )
    return hashlib.sha256(payload.encode()).hexdigest()
