"""Tests for the perceptual hash: invariances and sensitivity."""

import numpy as np
import pytest

from repro.hashing.phash import phash, phash_bits, phash_to_hex
from repro.images.raster import blank, resize
from repro.images.templates import TemplateLibrary
from repro.images.transforms import add_noise, adjust_brightness, crop_and_resize
from repro.utils.bitops import hamming_distance
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def templates():
    return TemplateLibrary.build(derive_rng(9, "t"), {"a": 5, "b": 5})


class TestBasics:
    def test_constant_image_has_only_dc_bit(self):
        # AC coefficients are all zero; the positive DC term alone
        # exceeds the zero median, so only the first bit is set.
        assert phash_to_hex(phash(blank(64, fill=0.5))) == "8000000000000000"
        # A black image has zero DC as well -> fully zero hash.
        assert int(phash(blank(64, fill=0.0))) == 0

    def test_deterministic(self, templates):
        image = templates.templates[0].render(64)
        assert int(phash(image)) == int(phash(image))

    def test_bits_count(self, templates):
        bits = phash_bits(templates.templates[0].render(64))
        assert bits.shape == (64,)
        assert set(np.unique(bits)).issubset({0, 1})

    def test_invalid_hash_size(self):
        with pytest.raises(ValueError):
            phash_bits(blank(32), hash_size=1)

    def test_hex_format(self):
        assert phash_to_hex(0) == "0" * 16
        assert phash_to_hex(0x55352B0B8D8B5B53) == "55352b0b8d8b5b53"


class TestInvariances:
    """pHash must be robust to the operations Section 2.2 claims."""

    def test_noise_robustness(self, templates):
        rng = derive_rng(10, "noise")
        for template in templates:
            image = template.render(64)
            noisy = add_noise(image, rng, sigma=0.02)
            assert hamming_distance(phash(image), phash(noisy)) <= 8

    def test_brightness_robustness(self, templates):
        image = templates.templates[0].render(64)
        for delta in (-0.1, 0.1):
            shifted = adjust_brightness(image, delta)
            assert hamming_distance(phash(image), phash(shifted)) <= 8

    def test_rescaling_robustness(self, templates):
        image = templates.templates[0].render(128)
        small = resize(image, 48, 48)
        assert hamming_distance(phash(image), phash(small)) <= 8

    def test_mild_crop_robustness(self, templates):
        image = templates.templates[0].render(64)
        cropped = crop_and_resize(image, 0.03)
        assert hamming_distance(phash(image), phash(cropped)) <= 10


class TestSensitivity:
    def test_different_templates_far_apart(self, templates):
        hashes = [phash(t.render(64)) for t in templates]
        distances = [
            hamming_distance(hashes[i], hashes[j])
            for i in range(len(hashes))
            for j in range(i + 1, len(hashes))
        ]
        # Unrelated scenes should mostly exceed the clustering threshold.
        assert np.median(distances) > 12

    def test_inversion_flips_bits(self, templates):
        image = templates.templates[0].render(64)
        inverted = 1.0 - image
        # Inverting intensity flips the DCT signs -> far-away hash.
        assert hamming_distance(phash(image), phash(inverted)) > 20
