"""Tests for aHash, dHash and wHash, the baselines of `bench_ablation_hash`."""

import numpy as np
import pytest

from benchmarks.bench_ablation_hash import HASHERS, ahash, dhash
from repro.images.raster import blank
from repro.images.templates import TemplateLibrary
from repro.images.transforms import add_noise, adjust_brightness
from repro.utils.bitops import hamming_distance
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def templates():
    return TemplateLibrary.build(derive_rng(61, "t"), {"a": 4, "b": 4})


class TestAHash:
    def test_deterministic_uint64(self, templates):
        image = templates.templates[0].render(64)
        assert ahash(image).dtype == np.uint64
        assert int(ahash(image)) == int(ahash(image))

    def test_constant_image(self):
        # All pixels equal the mean -> no pixel is strictly greater.
        assert int(ahash(blank(64, fill=0.5))) == 0

    def test_distinguishes_templates(self, templates):
        hashes = [ahash(t.render(64)) for t in templates]
        distances = [
            hamming_distance(hashes[i], hashes[j])
            for i in range(len(hashes))
            for j in range(i + 1, len(hashes))
        ]
        assert np.median(distances) > 8

    def test_brittle_under_contrast_shift(self, templates):
        """aHash's known weakness (why the paper uses pHash): a global
        brightness shift moves the mean and can flip many bits."""
        rng = derive_rng(62, "v")
        flips_a, flips_p = [], []
        from repro.hashing import phash

        for template in templates:
            image = template.render(64)
            shifted = adjust_brightness(image, 0.25)
            flips_a.append(hamming_distance(ahash(image), ahash(shifted)))
            flips_p.append(hamming_distance(phash(image), phash(shifted)))
        assert np.mean(flips_a) >= np.mean(flips_p)


class TestDHash:
    def test_deterministic_uint64(self, templates):
        image = templates.templates[0].render(64)
        assert int(dhash(image)) == int(dhash(image))

    def test_brightness_invariant(self, templates):
        image = templates.templates[0].render(64)
        shifted = adjust_brightness(image, 0.15)
        assert hamming_distance(dhash(image), dhash(shifted)) <= 6

    def test_horizontal_gradient_all_ones(self):
        gradient = np.tile(np.linspace(0, 1, 64), (64, 1)).astype(np.float32)
        assert int(dhash(gradient)) == 2**64 - 1

    def test_noise_tolerance(self, templates):
        rng = derive_rng(63, "n")
        image = templates.templates[0].render(64)
        noisy = add_noise(image, rng, sigma=0.02)
        assert hamming_distance(dhash(image), dhash(noisy)) <= 14


class TestRegistry:
    def test_all_hashers_produce_uint64(self, templates):
        image = templates.templates[0].render(64)
        for name, hasher in HASHERS.items():
            value = hasher(image)
            assert isinstance(value, np.uint64), name


class TestHaarDWT:
    def test_validation(self):
        from benchmarks.bench_ablation_hash import haar_dwt2

        with pytest.raises(ValueError):
            haar_dwt2(np.zeros(8))
        with pytest.raises(ValueError):
            haar_dwt2(np.zeros((6, 6)), levels=2)  # 6 not divisible by 4
        with pytest.raises(ValueError):
            haar_dwt2(np.zeros((8, 8)), levels=0)

    def test_constant_image_energy(self):
        from benchmarks.bench_ablation_hash import haar_dwt2

        # Orthonormal Haar: (c + c)/sqrt(2) = c*sqrt(2) per axis, so the
        # LL value of a constant c gains a factor 2 per level.
        band = haar_dwt2(np.full((8, 8), 0.5), levels=3)
        assert band.shape == (1, 1)
        assert band[0, 0] == pytest.approx(0.5 * 2**3)

    def test_energy_preserved_by_orthonormality(self):
        from benchmarks.bench_ablation_hash import haar_dwt2

        rng = np.random.default_rng(0)
        image = rng.random((4, 4))
        # One full level splits energy across LL/LH/HL/HH; reconstruct the
        # total via all four bands computed by hand and compare with LL.
        ll = haar_dwt2(image, levels=1)
        rows_lo = (image[:, 0::2] + image[:, 1::2]) / np.sqrt(2)
        rows_hi = (image[:, 0::2] - image[:, 1::2]) / np.sqrt(2)
        lh = (rows_lo[0::2] - rows_lo[1::2]) / np.sqrt(2)
        hl = (rows_hi[0::2] + rows_hi[1::2]) / np.sqrt(2)
        hh = (rows_hi[0::2] - rows_hi[1::2]) / np.sqrt(2)
        total = (ll**2).sum() + (lh**2).sum() + (hl**2).sum() + (hh**2).sum()
        assert total == pytest.approx((image**2).sum())


class TestWHash:
    def test_deterministic_uint64(self, templates):
        from benchmarks.bench_ablation_hash import whash

        image = templates.templates[0].render(64)
        assert int(whash(image)) == int(whash(image))
        assert whash(image).dtype == np.uint64

    def test_noise_robust(self, templates):
        from benchmarks.bench_ablation_hash import whash

        rng = derive_rng(64, "n")
        image = templates.templates[0].render(64)
        noisy = add_noise(image, rng, sigma=0.02)
        assert hamming_distance(whash(image), whash(noisy)) <= 10

    def test_distinguishes_templates(self, templates):
        from benchmarks.bench_ablation_hash import whash

        hashes = [whash(t.render(64)) for t in templates]
        distances = [
            hamming_distance(hashes[i], hashes[j])
            for i in range(len(hashes))
            for j in range(i + 1, len(hashes))
        ]
        assert np.median(distances) > 8
