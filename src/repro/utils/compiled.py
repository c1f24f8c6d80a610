"""Kernel tier reported in benchmark host fingerprints.

Every kernel in this package is pure numpy.  The optional C/numba tier
that once served the dense Hamming matrix (gated by ``REPRO_COMPILED``)
is gone: the matrix has no pipeline caller and the benchmark workloads
never enabled the tier.  The module stays only because
``perfbench/run.py`` records ``compiled.tier()`` in the host line of
every full benchmark run; ``tests/test_utils_compiled.py`` pins that
contract.
"""

from __future__ import annotations

__all__ = ["tier"]


def tier() -> str:
    """The kernel implementation tier: always ``"numpy"``."""
    return "numpy"
