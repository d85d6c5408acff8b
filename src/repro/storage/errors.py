"""Exceptions raised by the simulated storage services."""

from __future__ import annotations

__all__ = [
    "StorageError",
    "KeyNotFound",
    "BucketNotFound",
    "TransientStorageError",
]


class StorageError(Exception):
    """Base class for storage-service errors."""


class KeyNotFound(StorageError):
    """A GET referenced a key/object that does not exist."""

    def __init__(self, key: str, where: str = "store"):
        super().__init__(f"key {key!r} not found in {where}")
        self.key = key
        self.where = where


class BucketNotFound(StorageError):
    """An object-store operation referenced an unknown bucket."""

    def __init__(self, bucket: str):
        super().__init__(f"bucket {bucket!r} not found")
        self.bucket = bucket


class TransientStorageError(StorageError):
    """An injected transient fault exhausted the service's retry budget.

    The storage layer retries transient failures internally (with a
    deterministic backoff); only when ``max_storage_retries`` consecutive
    attempts fail does this surface to the caller — who may retry at a
    coarser granularity (e.g. relaunch the whole activation).
    """

    def __init__(self, service: str, op: str, attempts: int):
        super().__init__(
            f"{service}.{op} failed after {attempts} attempts "
            "(injected transient errors)"
        )
        self.service = service
        self.op = op
        self.attempts = attempts
