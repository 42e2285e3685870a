"""The one content digest: SHA-256 truncated to 16 bytes.

Every content-addressed key in the package — a CSR's structure and content
keys, a dense operand's store key, a fused layer's coalescing token — is this
digest.  SHA-256 runs on the CPU's SHA extensions where it has them
(~0.9 ms/MiB on a SHA-NI x86 core, against ~2.4 ms/MiB for BLAKE2b there),
and 16 bytes keep collisions out of reach for any cache this package holds.
Routing scores (:func:`repro.cluster.head.rendezvous_rank`) are *not* keys
and keep their own hash, so a key change never moves a matrix's host.
"""

from __future__ import annotations

import hashlib


def digest16(*chunks) -> str:
    """Hex SHA-256 of ``chunks`` (bytes or C-contiguous buffers, hashed in
    order, without copying), truncated to 16 bytes (32 hex digits)."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:32]
