"""Shared low-level utilities: seeded RNG plumbing, bit operations, tables.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` builds on them.
"""

from repro.utils.bitops import (
    flip_random_bits,
    hamming_distance,
    hamming_to_many,
    pack_bits,
    popcount,
)
from repro.utils.io import (
    CheckpointError,
    StaleCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.retry import RetryOutcome, RetryPolicy, TransientError, retry_call
from repro.utils.rng import RngStream, derive_rng
from repro.utils.svgplot import LineChart, Series
from repro.utils.tables import format_table, print_table

__all__ = [
    "RngStream",
    "derive_rng",
    "pack_bits",
    "popcount",
    "hamming_distance",
    "hamming_to_many",
    "format_table",
    "print_table",
    "flip_random_bits",
    "CheckpointError",
    "StaleCheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "RetryPolicy",
    "RetryOutcome",
    "TransientError",
    "retry_call",
    "LineChart",
    "Series",
]
