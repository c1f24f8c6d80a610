"""Compiled kernel tier: gating, fallback, and bit-identity.

The contract is strict: ``REPRO_COMPILED`` only ever changes wall
time.  Whatever tier resolves — numba, the runtime-compiled C library,
or pure numpy — every kernel's output is bit-identical, and a tier
that cannot activate falls back with a warning rather than an error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.pairwise import _neighbors_shard
from repro.utils import compiled
from repro.utils.bitops import hamming_distance_matrix, popcount


@pytest.fixture()
def tier_env(monkeypatch):
    """Set REPRO_COMPILED for one test and restore the resolved tier."""

    def set_tier(value: str | None):
        if value is None:
            monkeypatch.delenv(compiled.ENV_COMPILED, raising=False)
        else:
            monkeypatch.setenv(compiled.ENV_COMPILED, value)
        compiled.refresh()

    yield set_tier
    compiled.refresh()


def _cc_available() -> bool:
    return compiled._find_compiler() is not None


requires_cc = pytest.mark.skipif(
    not _cc_available(), reason="no C compiler on host"
)


class TestGating:
    def test_off_by_default(self, tier_env):
        tier_env(None)
        assert compiled.tier() == "numpy"
        assert not compiled.enabled()
        assert compiled.hamming_matrix(
            np.ones(2, dtype=np.uint64), np.ones(2, dtype=np.uint64)
        ) is None

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", ""])
    def test_explicit_off_values(self, tier_env, value):
        tier_env(value)
        assert compiled.tier() == "numpy"

    def test_malformed_value_warns_and_stays_off(self, tier_env):
        tier_env("turbo")
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert compiled.tier() == "numpy"

    @requires_cc
    def test_auto_resolves_a_compiled_tier(self, tier_env):
        tier_env("1")
        assert compiled.tier() in ("numba", "cc")
        assert compiled.enabled()

    def test_unavailable_tier_warns_and_falls_back(self, tier_env, monkeypatch):
        # Pin the cc tier but hide every compiler (and pretend the
        # library has never been built): the tier must demote to numpy
        # with a warning, never raise.
        tier_env("cc")
        monkeypatch.setattr(compiled, "_load_cc_library", lambda: None)
        compiled.refresh()
        with pytest.warns(RuntimeWarning, match="falling"):
            assert compiled.tier() == "numpy"

    def test_kernel_variant_suffixes_by_tier(self, tier_env):
        tier_env(None)
        assert compiled.kernel_variant("radius_neighbors_mih") == (
            "radius_neighbors_mih"
        )
        if _cc_available():
            tier_env("cc")
            assert compiled.kernel_variant("radius_neighbors_mih") == (
                f"radius_neighbors_mih+{compiled.tier()}"
            )


@requires_cc
class TestBitIdentity:
    def _hashes(self, n=1200, seed=3):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 2**63, n // 2, dtype=np.uint64)
        # Clustered pairs: realistic candidate density for MIH.
        return np.concatenate([base, base ^ np.uint64(3)])

    def test_hamming_matrix_identical(self, tier_env):
        tier_env("cc")
        a = self._hashes(400)
        b = self._hashes(300, seed=5)
        fast = compiled.hamming_matrix(a, b)
        assert fast is not None
        expected = popcount(a[:, None] ^ b[None, :])
        assert fast.dtype == np.int64
        assert np.array_equal(fast, expected)

    def test_hamming_matrix_empty_operands(self, tier_env):
        tier_env("cc")
        empty = np.empty(0, dtype=np.uint64)
        out = compiled.hamming_matrix(empty, self._hashes(10))
        assert out is not None and out.shape == (0, 10)

    def test_mih_shard_kernel_routes_through_tier(self, tier_env):
        # The radius-neighbour shard kernel, on its join path, must give
        # the same rows with the tier on and off.
        hashes = self._hashes(800)
        tier_env(None)
        slow = _neighbors_shard(hashes, 0, hashes.size, 6, False)
        tier_env("cc")
        fast = _neighbors_shard(hashes, 0, hashes.size, 6, False)
        assert fast[0].size == hashes.size
        assert all(np.array_equal(a, b) for a, b in zip(fast, slow))

    def test_hamming_distance_matrix_routes_through_tier(self, tier_env):
        a = self._hashes(300)
        tier_env(None)
        slow = hamming_distance_matrix(a)
        tier_env("cc")
        fast = hamming_distance_matrix(a)
        assert np.array_equal(fast, slow)
