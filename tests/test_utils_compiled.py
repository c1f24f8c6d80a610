"""The kernel-tier stub that benchmark host lines import.

``perfbench/run.py`` records ``repro.utils.compiled.tier()`` in the
host line of every full run; its ``--smoke`` mode returns before that,
so this test is what catches a removed or renamed stub.
"""

from repro.utils import compiled


def test_tier_is_numpy():
    assert compiled.tier() == "numpy"
