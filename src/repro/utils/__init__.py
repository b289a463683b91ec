"""Shared infrastructure: RNG streams, validation, logging, backoff."""

from repro.utils.logging import EventLog, EventRecord
from repro.utils.rng import child_rng, stable_hash64
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_vector,
)

__all__ = [
    "EventLog",
    "EventRecord",
    "child_rng",
    "stable_hash64",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_vector",
]
