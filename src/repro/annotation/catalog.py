"""A paper-grounded catalog of meme entities.

The synthetic world needs named memes with the properties the paper's
analysis keys on: KYM category (memes / people / events / sites / cultures
/ subcultures), racist and politics tags (Section 4.2.1 groups memes by
the tags ``racism``/``racist``/``antisemitism`` and ``politics``/
``trump``/``clinton``/election tags), people links, and a visual family
(the paper's frog case study, Section 4.1.2).  The default catalog lists
the entities that dominate the paper's Tables 3–5 so the reproduced tables
speak the same language as the published ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CatalogEntry",
    "DEFAULT_CATALOG",
]

CATEGORIES = ("memes", "subcultures", "cultures", "people", "events", "sites")

RACISM_TAGS = frozenset({"racism", "racist", "antisemitism"})
POLITICS_TAGS = frozenset(
    {
        "politics",
        "2016 us presidential election",
        "presidential election",
        "trump",
        "clinton",
    }
)


@dataclass(frozen=True)
class CatalogEntry:
    """One meme entity: identity, KYM category, analysis tags, visual family.

    Attributes
    ----------
    name:
        Stable slug, e.g. ``"smug-frog"``.
    family:
        Visual family; same-family entries render from related templates.
    category:
        KYM category (one of :data:`CATEGORIES`).
    tags:
        KYM-style tags; drive the racist/politics grouping.
    people:
        People depicted (for the ``r_people`` feature of the metric).
    cultures:
        Higher-level cultures the entry belongs to (``r_culture`` feature).
    """

    name: str
    family: str
    category: str = "memes"
    tags: frozenset[str] = field(default_factory=frozenset)
    people: frozenset[str] = field(default_factory=frozenset)
    cultures: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown KYM category {self.category!r}")

    @property
    def is_racist(self) -> bool:
        """True when tagged with any of the paper's racism tags."""
        return bool(self.tags & RACISM_TAGS)

    @property
    def is_politics(self) -> bool:
        """True when tagged with any of the paper's politics tags."""
        return bool(self.tags & POLITICS_TAGS)


def _entry(
    name: str,
    family: str,
    category: str = "memes",
    tags: tuple[str, ...] = (),
    people: tuple[str, ...] = (),
    cultures: tuple[str, ...] = (),
) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        family=family,
        category=category,
        tags=frozenset(tags),
        people=frozenset(people),
        cultures=frozenset(cultures),
    )


# The entities of the paper's Tables 3-5 and Section 4.1.2, with the tag
# structure Section 4.2.1 relies on.  Families mirror the paper's visual
# groupings: the frog memes form one family, the Happy Merchant variants
# another, and so on.
DEFAULT_CATALOG: tuple[CatalogEntry, ...] = (
    # --- the frog family (Fig. 6 case study) ---
    _entry("pepe-the-frog", "frog", cultures=("4chan",)),
    _entry("smug-frog", "frog", cultures=("4chan",)),
    _entry("feels-bad-man-sad-frog", "frog", cultures=("4chan",)),
    _entry("apu-apustaja", "frog", cultures=("4chan",)),
    _entry("angry-pepe", "frog", cultures=("4chan",)),
    _entry("cult-of-kek", "frog", tags=("politics",), cultures=("alt-right",)),
    # --- racist memes ---
    _entry(
        "happy-merchant",
        "merchant",
        tags=("antisemitism", "racism"),
        cultures=("alt-right",),
    ),
    _entry(
        "a-wyatt-mann",
        "merchant",
        category="people",
        tags=("racism",),
        cultures=("alt-right",),
    ),
    _entry(
        "serbia-strong-remove-kebab",
        "merchant",
        tags=("racism",),
        cultures=("alt-right",),
    ),
    # --- politics memes & people ---
    _entry(
        "donald-trump",
        "politics",
        category="people",
        tags=("politics", "trump"),
        people=("donald-trump",),
    ),
    _entry(
        "make-america-great-again",
        "politics",
        tags=("politics", "trump", "2016 us presidential election"),
        people=("donald-trump",),
    ),
    _entry(
        "hillary-clinton",
        "politics",
        category="people",
        tags=("politics", "clinton"),
        people=("hillary-clinton",),
    ),
    _entry(
        "clinton-trump-duet",
        "politics",
        tags=("politics", "trump", "clinton"),
        people=("donald-trump", "hillary-clinton"),
    ),
    _entry(
        "bernie-sanders",
        "politics",
        category="people",
        tags=("politics",),
        people=("bernie-sanders",),
    ),
    _entry(
        "adolf-hitler",
        "politics",
        category="people",
        tags=("politics", "racism"),
        people=("adolf-hitler",),
    ),
    _entry(
        "vladimir-putin",
        "politics",
        category="people",
        tags=("politics",),
        people=("vladimir-putin",),
    ),
    _entry(
        "barack-obama",
        "politics",
        category="people",
        tags=("politics",),
        people=("barack-obama",),
    ),
    _entry(
        "kim-jong-un",
        "politics",
        category="people",
        tags=("politics",),
        people=("kim-jong-un",),
    ),
    _entry(
        "donald-trumps-wall",
        "politics",
        tags=("politics", "trump"),
        people=("donald-trump",),
    ),
    _entry(
        "jesusland",
        "politics",
        tags=("politics",),
    ),
    # --- events ---
    _entry(
        "cnnblackmail",
        "events",
        category="events",
        tags=("politics", "trump"),
    ),
    _entry(
        "2016-us-election",
        "events",
        category="events",
        tags=("politics", "2016 us presidential election"),
    ),
    _entry(
        "trumpanime-rick-wilson",
        "events",
        category="events",
        tags=("politics", "trump"),
    ),
    _entry("brexit", "events", category="events", tags=("politics",)),
    # --- sites & cultures ---
    _entry("pol", "sites", category="sites", cultures=("4chan",)),
    _entry("know-your-meme", "sites", category="sites"),
    _entry("tumblr", "sites", category="sites"),
    _entry("alt-right", "cultures", category="cultures", tags=("politics",)),
    _entry("trolling", "cultures", category="cultures"),
    _entry("rage-comics", "cultures", category="subcultures"),
    _entry("spongebob-squarepants", "cultures", category="subcultures"),
    # --- neutral / reaction memes (mainstream favourites, Table 4) ---
    _entry("roll-safe", "reaction"),
    _entry("evil-kermit", "reaction"),
    _entry("arthurs-fist", "reaction"),
    _entry("expanding-brain", "reaction"),
    _entry("nut-button", "reaction"),
    _entry("manning-face", "reaction", people=("chelsea-manning",)),
    _entry("thats-the-joke", "reaction"),
    _entry("this-is-fine", "reaction"),
    _entry("conceited-reaction", "reaction"),
    _entry("spongebob-mock", "reaction"),
    # --- fringe-flavoured misc memes ---
    _entry("bait-this-is-bait", "misc", cultures=("4chan",)),
    _entry("i-know-that-feel-bro", "misc"),
    _entry("tony-kornheisers-why", "misc"),
    _entry("computer-reaction-faces", "misc", cultures=("4chan",)),
    _entry("dubs-guy-check-em", "misc", cultures=("4chan",)),
    _entry("wojak-feels-guy", "misc", cultures=("4chan",)),
    _entry("demotivational-posters", "misc"),
    _entry("absolutely-disgusting", "misc"),
    _entry("laughing-tom-cruise", "misc"),
    _entry("counter-signal-memes", "misc", tags=("politics",)),
)
