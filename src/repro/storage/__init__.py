"""Simulated storage services: object store, KV store, message queue."""

from .base import ServiceMetrics, StorageService
from .errors import (
    BucketNotFound,
    KeyNotFound,
    StorageError,
    TransientStorageError,
)
from .kv_store import KVStore
from .message_queue import Exchange, MessageQueue
from .object_store import ObjectStore
from .sizing import payload_size

__all__ = [
    "StorageService",
    "ServiceMetrics",
    "ObjectStore",
    "KVStore",
    "MessageQueue",
    "Exchange",
    "payload_size",
    "StorageError",
    "KeyNotFound",
    "BucketNotFound",
    "TransientStorageError",
]
