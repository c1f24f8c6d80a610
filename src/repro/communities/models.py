"""Post and community data models.

Posts live in a :class:`PostTable`: one numpy column per field, which is
the shape the pipeline and the analysis layer consume (the paper's
(timestamp, community, pHash, score, subreddit) tuples).  A
:class:`Post` is the row view that indexing and iteration return, for
callers that handle one post at a time.  Ground truth fields
(``template_name``, ``root_community``) record what the generator knows
and the pipeline must rediscover; they are used only for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "COMMUNITIES",
    "FRINGE_COMMUNITIES",
    "DISPLAY_NAMES",
    "Post",
    "PostTable",
    "CommunityStats",
]

# Process ordering is fixed repo-wide; influence matrices follow it.
COMMUNITIES: tuple[str, ...] = ("pol", "reddit", "twitter", "gab", "the_donald")
FRINGE_COMMUNITIES: tuple[str, ...] = ("pol", "the_donald", "gab")

DISPLAY_NAMES: dict[str, str] = {
    "pol": "/pol/",
    "reddit": "Reddit",
    "twitter": "Twitter",
    "gab": "Gab",
    "the_donald": "The_Donald",
}

# Column codes: communities are int8 positions in COMMUNITIES (-1 for a
# missing root community); a missing score is the int64 minimum.
_CODE = {None: -1, **{name: code for code, name in enumerate(COMMUNITIES)}}
_NAMES = np.array(COMMUNITIES + (None,), dtype=object)  # _NAMES[-1] is None
_NO_SCORE = np.iinfo(np.int64).min


@dataclass(frozen=True)
class Post:
    """One image post: the row view of a :class:`PostTable`.

    Attributes
    ----------
    community:
        One of :data:`COMMUNITIES`.  ``the_donald`` posts are also Reddit
        posts (their ``subreddit`` is ``"The_Donald"``); dataset-level
        Reddit statistics merge them back in.
    timestamp:
        Days since the observation start (2016-07-01 in the paper).
    phash:
        The image's 64-bit perceptual hash.
    image_id:
        Identity of the underlying image file; posts sharing an
        ``image_id`` reposted the same bytes.
    score:
        Vote score (Reddit/Gab only, else ``None``).
    subreddit:
        Subreddit name for Reddit-family posts, else ``None``.
    template_name:
        Ground truth: the meme template behind the image, ``None`` for
        one-off noise images.
    root_community:
        Ground truth: the community where this post's Hawkes cascade
        originated (``None`` for noise posts).
    """

    community: str
    timestamp: float
    phash: np.uint64
    image_id: str
    score: int | None = None
    subreddit: str | None = None
    template_name: str | None = None
    root_community: str | None = None

    @property
    def is_meme(self) -> bool:
        """Ground truth: whether the image derives from a meme template."""
        return self.template_name is not None


_COLUMN_DTYPES: dict[str, type] = {
    "phash": np.uint64,
    "timestamp": np.float64,
    "community": np.int8,
    "root_community": np.int8,
    "score": np.int64,
    "image_id": object,
    "subreddit": object,
    "template_name": object,
}


@dataclass(frozen=True, eq=False)
class PostTable:
    """Posts as aligned columns (struct of arrays).

    Columns: ``phash`` (uint64), ``timestamp`` (float64), ``community``
    and ``root_community`` (int8 codes into :data:`COMMUNITIES`, -1 for
    ``None``), ``score`` (int64, the int64 minimum for ``None``), and
    ``image_id``, ``subreddit`` and ``template_name`` (object arrays,
    ``None`` where absent).  Slicing returns a table of column views;
    ``table[i]`` and iteration return :class:`Post` rows.  Equality is
    column-wise.  :meth:`to_columns`/:meth:`from_columns` are the one
    serialised form (NPZ files, the stream checkpoint, WAL records).
    """

    phash: np.ndarray
    timestamp: np.ndarray
    community: np.ndarray
    root_community: np.ndarray
    score: np.ndarray
    image_id: np.ndarray
    subreddit: np.ndarray
    template_name: np.ndarray

    def __post_init__(self) -> None:
        n = self.phash.shape[0]
        for name, dtype in _COLUMN_DTYPES.items():
            column = getattr(self, name)
            if column.dtype != dtype or column.shape != (n,):
                raise ValueError(
                    f"post column {name!r} must be a 1-D {np.dtype(dtype)} "
                    f"array of length {n}, got {column.dtype} {column.shape}"
                )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_columns(cls, columns: dict) -> "PostTable":
        """The table of a :meth:`to_columns` dict (columns are not copied
        when their dtype already matches)."""
        missing = set(_COLUMN_DTYPES) - set(columns)
        if missing:
            raise ValueError(f"post columns missing: {sorted(missing)}")
        return cls(
            **{
                name: np.asarray(columns[name], dtype=dtype)
                for name, dtype in _COLUMN_DTYPES.items()
            }
        )

    @classmethod
    def from_rows(cls, posts) -> "PostTable":
        """Convert a sequence of :class:`Post` rows (world generation)."""
        posts = list(posts)
        by_name = {
            f.name: [getattr(row, f.name) for row in posts] for f in fields(Post)
        }
        columns = {
            "phash": np.array(by_name["phash"], dtype=np.uint64),
            "timestamp": np.array(by_name["timestamp"], dtype=np.float64),
            "community": np.array(
                [_CODE[name] for name in by_name["community"]], dtype=np.int8
            ),
            "root_community": np.array(
                [_CODE[name] for name in by_name["root_community"]], dtype=np.int8
            ),
            "score": np.array(
                [_NO_SCORE if s is None else s for s in by_name["score"]],
                dtype=np.int64,
            ),
        }
        for name in ("image_id", "subreddit", "template_name"):
            column = np.empty(len(posts), dtype=object)
            column[:] = by_name[name]
            columns[name] = column
        return cls(**columns)

    @classmethod
    def empty(cls) -> "PostTable":
        return cls(
            **{name: np.empty(0, dtype=dtype) for name, dtype in _COLUMN_DTYPES.items()}
        )

    @classmethod
    def concat(cls, tables) -> "PostTable":
        """Rows of ``tables`` in order, as one table."""
        tables = [table for table in tables if len(table)]
        if len(tables) == 1:
            return tables[0]
        if not tables:
            return cls.empty()
        return cls(
            **{
                name: np.concatenate([getattr(table, name) for table in tables])
                for name in _COLUMN_DTYPES
            }
        )

    def to_columns(self) -> dict[str, np.ndarray]:
        """The columns by name: the one serialised form of posts."""
        return {name: getattr(self, name) for name in _COLUMN_DTYPES}

    # -- rows and row sets ------------------------------------------------

    def __len__(self) -> int:
        return int(self.phash.shape[0])

    def __getitem__(self, index):
        """A :class:`Post` for an integer, else :meth:`take` (slices are views)."""
        if not isinstance(index, (int, np.integer)):
            return self.take(index)
        score = self.score[index]
        return Post(
            community=COMMUNITIES[self.community[index]],
            timestamp=float(self.timestamp[index]),
            phash=self.phash[index],
            image_id=self.image_id[index],
            score=None if score == _NO_SCORE else int(score),
            subreddit=self.subreddit[index],
            template_name=self.template_name[index],
            root_community=_NAMES[self.root_community[index]],
        )

    def __iter__(self):
        return (self[index] for index in range(len(self)))

    def take(self, indices) -> "PostTable":
        """The rows at ``indices``: positions, a boolean mask or a slice."""
        return PostTable(
            **{name: column[indices] for name, column in self.to_columns().items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PostTable):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMN_DTYPES
        )

    # -- column views -----------------------------------------------------

    def in_community(
        self, community: str, *, merge_the_donald: bool = False
    ) -> np.ndarray:
        """Row mask of one community's posts.

        With ``merge_the_donald=True``, ``"reddit"`` includes The_Donald
        (dataset-level Reddit, as in Tables 1/4/6).
        """
        mask = self.community == _CODE[community]
        if merge_the_donald and community == "reddit":
            mask |= self.community == _CODE["the_donald"]
        return mask

    def community_names(self) -> np.ndarray:
        """The ``community`` column as names (an object array)."""
        return _NAMES[self.community]

    def has_score(self) -> np.ndarray:
        return self.score != _NO_SCORE

    def is_meme(self) -> np.ndarray:
        """Ground truth per row: the image derives from a meme template."""
        return np.not_equal(self.template_name, None)

    def group_by_community(self) -> dict[str, np.ndarray]:
        """Row positions per community, ascending within each community.

        One stable sort of the ``community`` codes; every community of
        :data:`COMMUNITIES` is a key, with an empty array when it has no
        rows.
        """
        order = np.argsort(self.community, kind="stable")
        bounds = np.searchsorted(
            self.community[order], np.arange(len(COMMUNITIES) + 1)
        )
        return {
            name: order[bounds[code] : bounds[code + 1]]
            for code, name in enumerate(COMMUNITIES)
        }


@dataclass(frozen=True)
class CommunityStats:
    """Table 1 row: dataset volumetrics for one community."""

    community: str
    n_posts: int
    n_posts_with_images: int
    n_images: int
    n_unique_phashes: int
