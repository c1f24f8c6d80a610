"""The synthetic world: 13 months of meme traffic on five communities.

Generation recipe (per DESIGN.md):

1. Render a template library from the meme catalog and synthesise a KYM
   annotation site over it.
2. For every catalog entry, build a ground-truth multivariate Hawkes
   model: background rates from community profiles (volume x affinity x
   entry popularity, iteratively rescaled so expected per-community event
   totals hit the Table 7 ratios) and group-specific weight matrices.
3. Simulate each entry's cascade exactly (branching sampler), modulated
   by real-world-event windows (the 2016 election, the presidential
   debate) and per-community activity ramps (Gab's growth).
4. Materialise each event as a :class:`Post` row with an image drawn
   from the entry's :class:`VariantPool` (Zipf-reused, so pHashes
   repeat), a vote score where the platform has one, and a subreddit on
   Reddit.  The sorted rows become the world's :class:`PostTable` once.
5. Add one-off noise images per community so that the unique-hash noise
   ratio lands in the paper's DBSCAN-noise band (Table 2).

Ground truth (template behind each image, root community of each cascade,
the true Hawkes parameters) is retained for evaluation only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.annotation.catalog import DEFAULT_CATALOG, CatalogEntry
from repro.annotation.kym import (
    KYMSite,
    SyntheticKYMConfig,
    library_for_catalog,
    random_one_off_image,
)
from repro.communities.models import (
    COMMUNITIES,
    CommunityStats,
    Post,
    PostTable,
)
from repro.communities.profiles import (
    LONG_TAIL_SUBREDDIT,
    CommunityProfile,
    default_profiles,
    entry_group,
    weights_for_group,
)
from repro.communities.variants import VariantPool
from repro.hashing.phash import phash
from repro.utils.bitops import flip_random_bits
from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import HawkesModel
from repro.hawkes.simulate import SimulationResult, simulate_branching
from repro.images.screenshots import render_screenshot
from repro.images.templates import TemplateLibrary
from repro.images.transforms import random_variant
from repro.utils.rng import RngStream

__all__ = ["WorldConfig", "SyntheticWorld"]

# Popularity boosts for the paper's headline entries (Tables 3-5).
_DEFAULT_BOOSTS: dict[str, float] = {
    "donald-trump": 10.0,
    "feels-bad-man-sad-frog": 2.6,
    "smug-frog": 2.6,
    "pepe-the-frog": 2.2,
    "happy-merchant": 2.2,
    "make-america-great-again": 2.0,
    "roll-safe": 2.2,
    "evil-kermit": 2.0,
    "manning-face": 1.8,
    "apu-apustaja": 1.6,
}


@dataclass(frozen=True)
class WorldConfig:
    """Scale and dynamics knobs of the synthetic world.

    ``events_unit`` sets the expected number of meme events on the
    smallest community (Gab); all other communities scale by their
    profile's ``target_meme_events``.  The default (~120) yields a world
    of roughly 10K meme posts — test scale; benchmarks raise it.
    """

    seed: int = 42
    horizon_days: float = 396.0
    events_unit: float = 120.0
    image_size: int = 64
    kernel_beta: float = 1.5
    election_day: float = 130.0
    election_width: float = 16.0
    election_boost: float = 2.5
    debate_day: float = 100.0
    debate_width: float = 5.0
    debate_boost: float = 1.5
    gab_ramp: tuple[float, float] = (0.35, 1.8)
    gab_start_day: float = 40.0  # Gab launched in August 2016
    pool_groups_mean: float = 1.6
    pool_groups_max: int = 8
    variants_per_group: int = 18
    popularity_sigma: float = 0.55
    noise_scale: float = 1.0
    noise_repost_rate: float = 0.08
    exact_repost_rate: float = 0.30
    jitter_mean_bits: float = 2.4
    junk_series_ratio: float = 0.10
    junk_series_mean_posts: float = 14.0
    kym_wild_examples: int = 10
    kym: SyntheticKYMConfig = field(default_factory=SyntheticKYMConfig)
    max_events_per_entry: int = 500_000


class SyntheticWorld:
    """A fully generated world: templates, KYM site, posts, ground truth.

    Build with :meth:`generate`; all attributes are read-only by
    convention afterwards.
    """

    def __init__(
        self,
        config: WorldConfig,
        catalog: tuple[CatalogEntry, ...],
        library: TemplateLibrary,
        kym_site: KYMSite,
        posts: PostTable,
        entry_simulations: dict[str, SimulationResult],
        entry_models: dict[str, HawkesModel],
        profiles: dict[str, CommunityProfile],
    ) -> None:
        self.config = config
        self.catalog = catalog
        self.library = library
        self.kym_site = kym_site
        self.posts = posts
        self.entry_simulations = entry_simulations
        self.entry_models = entry_models
        self.profiles = profiles
        self._catalog_by_name = {entry.name: entry for entry in catalog}

    # ------------------------------------------------------------------
    # Accessors used by the pipeline and analyses
    # ------------------------------------------------------------------

    def catalog_entry(self, name: str) -> CatalogEntry:
        """Look up a catalog entry by name."""
        return self._catalog_by_name[name]

    def posts_of(
        self, community: str, *, merge_the_donald: bool = False
    ) -> PostTable:
        """Posts of one community.

        With ``merge_the_donald=True`` and ``community="reddit"``,
        The_Donald posts are included (they are Reddit posts in dataset
        terms, as in Tables 1/4/6).
        """
        if community not in COMMUNITIES:
            raise ValueError(f"unknown community {community!r}")
        return self.posts.take(
            self.posts.in_community(community, merge_the_donald=merge_the_donald)
        )

    def unique_hashes_of(self, community: str) -> np.ndarray:
        """Unique image pHashes posted on a community (clustering input)."""
        return np.unique(self.posts_of(community).phash)

    def community_stats(self) -> list[CommunityStats]:
        """Table 1 volumetrics (The_Donald folded into Reddit, as in the paper)."""
        rows = []
        for community in ("twitter", "reddit", "pol", "gab"):
            posts = self.posts_of(community, merge_the_donald=True)
            profile = self.profiles[community]
            n_with_images = len(posts)
            n_images = len(set(posts.image_id.tolist()))
            n_unique = int(np.unique(posts.phash).size)
            n_posts = int(round(n_with_images * (1.0 + profile.text_post_multiplier)))
            rows.append(
                CommunityStats(
                    community=community,
                    n_posts=n_posts,
                    n_posts_with_images=n_with_images,
                    n_images=n_images,
                    n_unique_phashes=n_unique,
                )
            )
        return rows

    def event_source(self):
        """The post timeline as a resumable streaming cursor.

        Generation already materialises every post from the per-entry
        Hawkes simulations and sorts them into one deterministic
        timeline (``(timestamp, community, image_id)``); this wraps it
        in a :class:`repro.stream.EventSource` so the streaming
        ingester consumes the same events incrementally — and a
        recovered ingester resumes from its durable event count with no
        gaps or duplicates.
        """
        from repro.stream import EventSource

        return EventSource(self.posts)

    def ground_truth_sources(self) -> dict[int, str]:
        """Map ``hash -> template name`` for every meme image (evaluation)."""
        memes = self.posts.take(self.posts.is_meme())
        return dict(zip(memes.phash.tolist(), memes.template_name.tolist()))

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        config: WorldConfig | None = None,
        *,
        catalog: tuple[CatalogEntry, ...] = DEFAULT_CATALOG,
        profiles: dict[str, CommunityProfile] | None = None,
    ) -> "SyntheticWorld":
        """Generate a world deterministically from ``config.seed``."""
        config = config or WorldConfig()
        profiles = profiles or default_profiles()
        missing = set(COMMUNITIES) - set(profiles)
        if missing:
            raise ValueError(f"profiles missing for communities: {sorted(missing)}")
        streams = RngStream(config.seed)
        library = library_for_catalog(catalog, streams.get("templates"))
        kym_site = KYMSite.synthesize(
            catalog, library, streams.get("kym"), config.kym
        )

        popularity = _entry_popularity(catalog, streams.get("popularity"), config)
        backgrounds = _calibrated_backgrounds(
            catalog, profiles, popularity, config
        )
        kernel = ExponentialKernel(config.kernel_beta)
        modulations = _build_modulations(config)

        posts: list[Post] = []
        entry_simulations: dict[str, SimulationResult] = {}
        entry_models: dict[str, HawkesModel] = {}
        entry_streams = streams.child("entries")
        for entry in catalog:
            group = entry_group(entry)
            model = HawkesModel(
                background=backgrounds[entry.name],
                weights=weights_for_group(group),
                kernel=kernel,
            )
            entry_models[entry.name] = model
            rng = entry_streams.get(entry.name)
            simulation = simulate_branching(
                model,
                config.horizon_days,
                rng,
                max_events=config.max_events_per_entry,
                background_modulation=modulations[group],
                modulation_max=_modulation_max(config),
            )
            entry_simulations[entry.name] = simulation
            posts.extend(
                _posts_from_simulation(
                    entry, simulation, library, profiles, rng, config
                )
            )

        # KYM galleries are crawls of memes *as posted in the wild*:
        # augment each entry's gallery with popular posted images, so
        # cluster medoids (built from wild, re-encoded copies) can match
        # (Step 5) the way they did against the real crawl.
        _augment_kym_with_wild_examples(
            kym_site, posts, streams.get("kym-wild"), config
        )
        posts.extend(
            _junk_series_posts(posts, profiles, streams.child("junk"), config)
        )
        posts.extend(
            _noise_posts(posts, profiles, streams.child("noise"), config)
        )
        posts.sort(key=lambda post: (post.timestamp, post.community, post.image_id))
        return cls(
            config=config,
            catalog=catalog,
            library=library,
            kym_site=kym_site,
            posts=PostTable.from_rows(posts),
            entry_simulations=entry_simulations,
            entry_models=entry_models,
            profiles=profiles,
        )


# ----------------------------------------------------------------------
# Generation helpers
# ----------------------------------------------------------------------


def _entry_popularity(
    catalog: tuple[CatalogEntry, ...],
    rng: np.random.Generator,
    config: WorldConfig,
) -> dict[str, float]:
    """Log-normal popularity per entry with paper-informed boosts."""
    return {
        entry.name: float(
            rng.lognormal(0.0, config.popularity_sigma)
            * _DEFAULT_BOOSTS.get(entry.name, 1.0)
        )
        for entry in catalog
    }


def _calibrated_backgrounds(
    catalog: tuple[CatalogEntry, ...],
    profiles: dict[str, CommunityProfile],
    popularity: dict[str, float],
    config: WorldConfig,
) -> dict[str, np.ndarray]:
    """Background rate vectors scaled so expected totals hit the targets.

    The expected event count of a (sub-critical) Hawkes model over a long
    horizon is ``(I - W^T)^-1 mu T``; cross-community excitation couples
    the totals, so per-community scale factors are found by fixed-point
    iteration (converges in a handful of steps).
    """
    k = len(COMMUNITIES)
    horizon = config.horizon_days
    raw = {
        entry.name: np.array(
            [
                profiles[c].affinity(entry) * popularity[entry.name]
                for c in COMMUNITIES
            ]
        )
        for entry in catalog
    }
    amplifiers = {
        group: np.linalg.inv(np.eye(k) - weights_for_group(group).T)
        for group in ("racist", "politics", "neutral")
    }
    targets = np.array(
        [profiles[c].target_meme_events * config.events_unit for c in COMMUNITIES]
    )
    scale = np.ones(k)
    for _ in range(12):
        expected = np.zeros(k)
        for entry in catalog:
            mu = scale * raw[entry.name]
            expected += amplifiers[entry_group(entry)] @ (mu * horizon)
        ratio = targets / np.maximum(expected, 1e-9)
        scale *= ratio
        if np.max(np.abs(ratio - 1.0)) < 1e-10:
            break
    return {name: scale * vector for name, vector in raw.items()}


def _gaussian_bump(day: float, width: float, boost: float):
    def bump(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return 1.0 + (boost - 1.0) * np.exp(-0.5 * ((t - day) / width) ** 2)

    return bump


def _build_modulations(config: WorldConfig) -> dict[str, list]:
    """Per-group, per-process background modulation callables."""
    election = _gaussian_bump(
        config.election_day, config.election_width, config.election_boost
    )
    debate = _gaussian_bump(config.debate_day, config.debate_width, config.debate_boost)
    lo, hi = config.gab_ramp

    def gab_activity(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        ramp = lo + (hi - lo) * np.clip(t / config.horizon_days, 0.0, 1.0)
        return np.where(t < config.gab_start_day, 0.0, ramp)

    def flat(t: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(t, dtype=np.float64))

    def combine(*fns):
        def combined(t: np.ndarray) -> np.ndarray:
            out = np.ones_like(np.asarray(t, dtype=np.float64))
            for fn in fns:
                out = out * fn(t)
            return out

        return combined

    per_community_base = {
        community: gab_activity if community == "gab" else flat
        for community in COMMUNITIES
    }
    politics_extra = {
        "twitter": combine(election, debate),
        "pol": election,
        "reddit": election,
        "gab": election,
        "the_donald": election,
    }
    modulations: dict[str, list] = {}
    for group in ("racist", "politics", "neutral"):
        per_process = []
        for community in COMMUNITIES:
            base = per_community_base[community]
            if group == "politics":
                per_process.append(combine(base, politics_extra[community]))
            else:
                per_process.append(base)
        modulations[group] = per_process
    return modulations


def _modulation_max(config: WorldConfig) -> float:
    """A bound on every modulation product used in generation."""
    return (
        max(config.gab_ramp[1], 1.0)
        * config.election_boost
        * config.debate_boost
    )


def _posts_from_simulation(
    entry: CatalogEntry,
    simulation: SimulationResult,
    library: TemplateLibrary,
    profiles: dict[str, CommunityProfile],
    rng: np.random.Generator,
    config: WorldConfig,
) -> list[Post]:
    """Materialise one entry's Hawkes events as posts with images."""
    n_events = len(simulation.sequence)
    n_groups = int(
        np.clip(1 + rng.poisson(config.pool_groups_mean), 1, config.pool_groups_max)
    )
    pool = VariantPool(
        library[entry.name],
        rng,
        n_groups=n_groups,
        variants_per_group=config.variants_per_group,
        image_size=config.image_size,
    )
    group = entry_group(entry)
    posts: list[Post] = []
    for event in range(n_events):
        community = COMMUNITIES[int(simulation.sequence.processes[event])]
        if (
            community == "gab"
            and simulation.sequence.times[event] < config.gab_start_day
        ):
            # Gab did not exist yet; cross-community excitation cannot
            # land there before launch.
            continue
        root = COMMUNITIES[int(simulation.roots[event])]
        variant = pool.sample(rng)
        # Reposts are usually re-encoded files: the new copy's pHash
        # lands a few bits from the variant's (Table 1's images vs
        # unique-pHashes gap; Table 8's threshold behaviour).  A
        # minority of posts reuse the exact same file/URL.
        if rng.random() < config.exact_repost_rate:
            observed_hash = variant.phash
            image_id = variant.image_id
        else:
            n_flips = 1 + min(int(rng.poisson(config.jitter_mean_bits)), 4)
            observed_hash = flip_random_bits(variant.phash, n_flips, rng)
            image_id = f"{variant.image_id}+re{event}"
        profile = profiles[community]
        score = _sample_score(profile, group, rng)
        subreddit = _sample_subreddit(profile, community, group, rng)
        posts.append(
            Post(
                community=community,
                timestamp=float(simulation.sequence.times[event]),
                phash=observed_hash,
                image_id=image_id,
                score=score,
                subreddit=subreddit,
                template_name=entry.name,
                root_community=root,
            )
        )
    return posts


def _sample_score(
    profile: CommunityProfile, group: str, rng: np.random.Generator
) -> int | None:
    if profile.score_model is None:
        return None
    log_mean, log_sigma = profile.score_model[group]
    return int(max(1, round(rng.lognormal(log_mean, log_sigma))))


def _sample_subreddit(
    profile: CommunityProfile,
    community: str,
    group: str,
    rng: np.random.Generator,
) -> str | None:
    if community == "the_donald":
        return "The_Donald"
    if profile.subreddit_weights is None:
        return None
    options = profile.subreddit_weights[group]
    names = [name for name, _ in options]
    weights = np.array([weight for _, weight in options])
    chosen = str(rng.choice(names, p=weights / weights.sum()))
    if chosen == LONG_TAIL_SUBREDDIT:
        # A draw from the long tail of small subreddits.
        return f"smallsub_{int(rng.integers(400)):03d}"
    return chosen


def _augment_kym_with_wild_examples(
    kym_site: KYMSite,
    meme_posts: list[Post],
    rng: np.random.Generator,
    config: WorldConfig,
) -> None:
    """Append frequently posted image hashes to each entry's KYM gallery.

    Know Your Meme galleries are community-collected examples of a meme
    in the wild; the most-reposted variants are exactly what ends up
    there.  Up to ``kym_wild_examples`` distinct posted hashes per entry
    are added (sampled by posting frequency), carrying the entry's
    template as ground truth.
    """
    if config.kym_wild_examples <= 0:
        return
    from collections import Counter

    by_entry: dict[str, Counter] = {}
    for post in meme_posts:
        if post.template_name is not None:
            by_entry.setdefault(post.template_name, Counter())[
                int(post.phash)
            ] += 1
    from repro.annotation.kym import GalleryImage

    for entry in kym_site:
        counts = by_entry.get(entry.name)
        if not counts:
            continue
        hashes = np.array(list(counts), dtype=np.uint64)
        frequencies = np.array([counts[int(h)] for h in hashes], dtype=float)
        n_pick = min(config.kym_wild_examples, hashes.size)
        picked = rng.choice(
            hashes.size,
            size=n_pick,
            replace=False,
            p=frequencies / frequencies.sum(),
        )
        for index in picked:
            entry.gallery.append(
                GalleryImage(
                    phash=np.uint64(hashes[int(index)]),
                    template_name=entry.name,
                )
            )


def _junk_series_posts(
    meme_posts: list[Post],
    profiles: dict[str, CommunityProfile],
    streams: RngStream,
    config: WorldConfig,
) -> list[Post]:
    """Recurrent non-meme images: the paper's *unannotated* clusters.

    Manual inspection in the paper found many clusters of "miscellaneous
    images unrelated to memes, e.g. similar screenshots of social network
    posts ... images captured from video games" (Section 4.1.1).  Each
    junk series here is a popular non-meme image reposted (with light
    variation) often enough to form a cluster that no KYM entry matches.
    """
    meme_count: dict[str, int] = {c: 0 for c in COMMUNITIES}
    for post in meme_posts:
        meme_count[post.community] += 1
    posts: list[Post] = []
    for community in COMMUNITIES:
        rng = streams.get(community)
        budget = int(round(config.junk_series_ratio * meme_count[community]))
        series_index = 0
        produced = 0
        while produced < budget:
            if rng.random() < 0.4:
                base = render_screenshot(rng, size=config.image_size)
            else:
                base = random_one_off_image(rng, size=config.image_size)
            n_variants = int(rng.integers(2, 7))
            variant_hashes = [phash(base)]
            variant_hashes += [
                phash(random_variant(base, rng)) for _ in range(n_variants - 1)
            ]
            n_posts = 5 + int(rng.poisson(config.junk_series_mean_posts))
            n_posts = min(n_posts, budget - produced + 5)
            profile = profiles[community]
            for post_index in range(n_posts):
                variant = int(rng.integers(len(variant_hashes)))
                posts.append(
                    Post(
                        community=community,
                        timestamp=_noise_timestamp(community, rng, config),
                        phash=variant_hashes[variant],
                        image_id=f"junk/{community}/{series_index}/v{variant}",
                        score=_sample_score(profile, "neutral", rng),
                        subreddit=_sample_subreddit(
                            profile, community, "neutral", rng
                        ),
                        template_name=None,
                        root_community=None,
                    )
                )
            produced += n_posts
            series_index += 1
    return posts


def _noise_posts(
    meme_posts: list[Post],
    profiles: dict[str, CommunityProfile],
    streams: RngStream,
    config: WorldConfig,
) -> list[Post]:
    """One-off (non-meme) image posts per community.

    Noise post volume is tied to each community's meme-post count so the
    DBSCAN image-noise fraction lands in the paper's 63-69% band
    regardless of world scale.
    """
    meme_post_counts: dict[str, int] = {c: 0 for c in COMMUNITIES}
    for post in meme_posts:
        if post.is_meme:
            meme_post_counts[post.community] += 1
    posts: list[Post] = []
    for community in COMMUNITIES:
        profile = profiles[community]
        rng = streams.get(community)
        n_unique = int(
            round(
                profile.noise_image_ratio
                * meme_post_counts[community]
                * config.noise_scale
                / (1.0 + config.noise_repost_rate)
            )
        )
        for index in range(n_unique):
            if rng.random() < profile.noise_screenshot_rate:
                image = render_screenshot(rng, size=config.image_size)
            else:
                image = random_one_off_image(rng, size=config.image_size)
            value = phash(image)
            image_id = f"noise/{community}/{index}"
            n_reposts = 1 + int(rng.poisson(config.noise_repost_rate))
            for _ in range(n_reposts):
                timestamp = _noise_timestamp(community, rng, config)
                score = _sample_score(profile, "neutral", rng)
                subreddit = _sample_subreddit(profile, community, "neutral", rng)
                posts.append(
                    Post(
                        community=community,
                        timestamp=timestamp,
                        phash=value,
                        image_id=image_id,
                        score=score,
                        subreddit=subreddit,
                        template_name=None,
                        root_community=None,
                    )
                )
    return posts


def _noise_timestamp(
    community: str, rng: np.random.Generator, config: WorldConfig
) -> float:
    """Uniform over the horizon; Gab activity ramps from its launch."""
    if community != "gab":
        return float(rng.uniform(0.0, config.horizon_days))
    lo, hi = config.gab_ramp
    while True:
        t = float(rng.uniform(config.gab_start_day, config.horizon_days))
        ramp = lo + (hi - lo) * t / config.horizon_days
        if rng.uniform(0.0, hi) < ramp:
            return t
