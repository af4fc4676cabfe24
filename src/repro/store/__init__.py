"""Out-of-core columnar result storage (ROADMAP item 3).

``repro.store`` keeps raw measurement columns on disk in append-only
``.npy`` shard segments with a manifest (a checkpoint plus an append
journal) of content-addressed entries, each with the BLAKE2 digest of its
values, so campaigns whose samples exceed RAM
still satisfy the paper's Rule 4: the full distribution survives to
analysis time and is read back lazily (memory-mapped) in bounded chunks.

See docs/STORE.md for the format specification and integrity semantics.
"""

from .shard import HEADER_SIZE, ShardWriter, open_shard, payload_digest
from .store import (
    DEFAULT_SHARD_ROWS,
    STORE_SCHEMA_VERSION,
    ShardStore,
    StoreStats,
)

__all__ = [
    "HEADER_SIZE",
    "ShardWriter",
    "open_shard",
    "payload_digest",
    "DEFAULT_SHARD_ROWS",
    "STORE_SCHEMA_VERSION",
    "ShardStore",
    "StoreStats",
]
