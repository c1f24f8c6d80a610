"""Ablation — why the pipeline hashes with pHash.

The paper picks the DCT pHash without comparing alternatives.  This
bench runs the comparison: for each of pHash / aHash / dHash, hash a set
of meme templates and their light variants, and measure (a) variant
recall — how often a variant lands within the clustering threshold of
its template — and (b) template separation — how often *unrelated*
templates collide within the threshold.  A good meme-tracking hash
maximises recall at near-zero collision.

The alternatives all produce 64-bit codes:

* **aHash** (average hash): downscale to 8x8, threshold each pixel
  against the mean.  Fast, but brittle under brightness/contrast edits,
  exactly the transforms meme variants apply.
* **dHash** (difference hash): downscale to 9x8, compare each pixel to
  its right neighbour.  Robust to global brightness, sensitive to
  texture noise.
* **wHash** (wavelet hash): a 3-level 2-D Haar DWT of a 64x64
  grayscale; the 8x8 low-frequency approximation band is
  median-thresholded.  The wavelet sibling of pHash's DCT.
"""

import numpy as np

from benchmarks.conftest import once
from repro.hashing.phash import phash
from repro.images.raster import resize, to_grayscale_array
from repro.images.templates import TemplateLibrary
from repro.images.transforms import random_variant
from repro.utils.bitops import hamming_distance, pack_bits
from repro.utils.rng import derive_rng
from repro.utils.tables import format_table


def ahash(image: np.ndarray) -> np.uint64:
    """Average hash: 8x8 mean-threshold bits, row-major MSB-first."""
    gray = to_grayscale_array(image)
    small = resize(gray, 8, 8).astype(np.float64)
    bits = (small > small.mean()).astype(np.uint8).ravel()
    return pack_bits(bits)


def dhash(image: np.ndarray) -> np.uint64:
    """Difference hash: 8 rows of 8 left<right comparisons on a 9x8 grid."""
    gray = to_grayscale_array(image)
    small = resize(gray, 8, 9).astype(np.float64)  # 8 rows, 9 columns
    bits = (small[:, 1:] > small[:, :-1]).astype(np.uint8).ravel()
    return pack_bits(bits)


def haar_dwt2(image: np.ndarray, levels: int = 1) -> np.ndarray:
    """Multi-level 2-D Haar discrete wavelet transform (approximation band).

    Each level averages 2x2 blocks (the LL band) after the standard Haar
    filter pair; only the approximation band is returned because that is
    all the hash consumes.  Input sides must be divisible by ``2**levels``.
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("haar_dwt2 expects a 2-D array")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    factor = 2**levels
    if arr.shape[0] % factor or arr.shape[1] % factor:
        raise ValueError(
            f"image sides must be divisible by 2**levels = {factor}"
        )
    out = arr
    for _ in range(levels):
        # Rows: (a + b) / sqrt(2); columns likewise -> LL band.
        rows = (out[:, 0::2] + out[:, 1::2]) / np.sqrt(2.0)
        out = (rows[0::2, :] + rows[1::2, :]) / np.sqrt(2.0)
    return out


def whash(image: np.ndarray) -> np.uint64:
    """Wavelet hash: Haar LL band at 8x8, median-thresholded."""
    gray = to_grayscale_array(image)
    small = resize(gray, 64, 64).astype(np.float64)
    band = haar_dwt2(small, levels=3)  # 64 -> 8
    bits = (band > np.median(band)).astype(np.uint8).ravel()
    return pack_bits(bits)


HASHERS = {
    "phash": phash,
    "ahash": ahash,
    "dhash": dhash,
    "whash": whash,
}


THRESHOLD = 8
N_VARIANTS = 12


def test_ablation_hash_functions(benchmark, write_output):
    library = TemplateLibrary.build(
        derive_rng(71, "templates"),
        {"a": 5, "b": 5, "c": 5, "d": 5},
    )
    rng = derive_rng(72, "variants")
    renders = [t.render(64) for t in library]
    variant_sets = [
        [random_variant(image, rng) for _ in range(N_VARIANTS)]
        for image in renders
    ]

    def run():
        scores = {}
        for name, hasher in HASHERS.items():
            base_hashes = [hasher(image) for image in renders]
            recall_hits = 0
            recall_total = 0
            for base_hash, variants in zip(base_hashes, variant_sets):
                for variant in variants:
                    recall_total += 1
                    if hamming_distance(base_hash, hasher(variant)) <= THRESHOLD:
                        recall_hits += 1
            collisions = 0
            pairs = 0
            for i in range(len(base_hashes)):
                for j in range(i + 1, len(base_hashes)):
                    pairs += 1
                    if hamming_distance(base_hashes[i], base_hashes[j]) <= THRESHOLD:
                        collisions += 1
            scores[name] = (recall_hits / recall_total, collisions / pairs)
        return scores

    scores = once(benchmark, run)
    text = format_table(
        [
            [name, f"{recall:.2f}", f"{collision:.3f}"]
            for name, (recall, collision) in scores.items()
        ],
        headers=["hash", "variant recall @8", "template collision @8"],
        title="Ablation: perceptual hash functions for meme tracking",
    )
    write_output("ablation_hash", text)

    phash_recall, phash_collision = scores["phash"]
    # pHash keeps collisions near zero with useful recall.
    assert phash_collision <= 0.05
    assert phash_recall >= 0.5
    # And dominates at least one alternative on the recall/collision
    # trade-off (recall no worse while colliding no more, or strictly
    # fewer collisions).
    dominated = 0
    for name in ("ahash", "dhash"):
        recall, collision = scores[name]
        if (phash_recall >= recall and phash_collision <= collision) or (
            phash_collision < collision
        ):
            dominated += 1
    assert dominated >= 1
