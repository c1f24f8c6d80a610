"""Property tests for the columnar post table and its row view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities import SyntheticWorld, WorldConfig
from repro.communities.models import COMMUNITIES, Post, PostTable

communities = st.sampled_from(COMMUNITIES)
optional_text = st.none() | st.text(max_size=6)
rows = st.builds(
    Post,
    community=communities,
    timestamp=st.floats(0.0, 400.0, allow_nan=False),
    phash=st.integers(0, 2**64 - 1).map(np.uint64),
    image_id=st.text(max_size=6),
    # The int64 minimum is the column's "no score" sentinel.
    score=st.none() | st.integers(-(2**63) + 1, 2**63 - 1),
    subreddit=optional_text,
    template_name=optional_text,
    root_community=st.none() | communities,
)
row_lists = st.lists(rows, max_size=25)


@given(row_lists)
def test_rows_round_trip(posts):
    table = PostTable.from_rows(posts)
    assert len(table) == len(posts)
    assert list(table) == posts
    assert [table[i] for i in range(-len(posts), 0)] == posts


@given(row_lists)
def test_columns_round_trip(posts):
    table = PostTable.from_rows(posts)
    assert PostTable.from_columns(table.to_columns()) == table


@given(row_lists, st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 3))
def test_slicing_matches_rows(posts, start, stop, step):
    table = PostTable.from_rows(posts)
    assert list(table[start:stop:step]) == posts[start:stop:step]


@given(row_lists, st.data())
def test_take_matches_rows(posts, data):
    table = PostTable.from_rows(posts)
    positions = data.draw(
        st.lists(st.integers(0, max(0, len(posts) - 1)), max_size=10)
        if posts
        else st.just([])
    )
    taken = table.take(np.array(positions, dtype=np.int64))
    assert list(taken) == [posts[i] for i in positions]
    mask = data.draw(st.lists(st.booleans(), min_size=len(posts), max_size=len(posts)))
    masked = table.take(np.array(mask, dtype=bool))
    assert list(masked) == [post for post, keep in zip(posts, mask) if keep]


@given(st.lists(row_lists, max_size=5))
def test_concat_matches_rows(batches):
    table = PostTable.concat([PostTable.from_rows(batch) for batch in batches])
    assert list(table) == [post for batch in batches for post in batch]
    assert table == PostTable.from_rows([post for batch in batches for post in batch])


@given(row_lists)
def test_group_by_community_is_stable_and_total(posts):
    groups = PostTable.from_rows(posts).group_by_community()
    assert list(groups) == list(COMMUNITIES)
    for community, positions in groups.items():
        expected = [i for i, post in enumerate(posts) if post.community == community]
        assert positions.tolist() == expected  # empty communities included


def test_none_in_every_optional_column():
    post = Post("gab", 3.5, np.uint64(9), "x")
    table = PostTable.from_rows([post, post])
    assert table[1] == post
    assert table[0].score is None
    assert table[0].subreddit is None
    assert table[0].template_name is None
    assert table[0].root_community is None
    assert not table.has_score().any()
    assert not table.is_meme().any()


def test_score_zero_is_not_none():
    table = PostTable.from_rows([Post("reddit", 1.0, np.uint64(1), "a", score=0)])
    assert table[0].score == 0
    assert table.has_score().all()


def test_equality_is_by_value():
    a = PostTable.from_rows([Post("pol", 1.0, np.uint64(1), "a")])
    b = PostTable.from_rows([Post("pol", 1.0, np.uint64(1), "a")])
    c = PostTable.from_rows([Post("pol", 1.0, np.uint64(1), "b")])
    assert a == b and a != c
    assert a != PostTable.empty()
    assert (a == [a[0]]) is False  # a table never equals a row list


def test_from_columns_rejects_bad_columns():
    columns = PostTable.empty().to_columns()
    with pytest.raises(ValueError, match="missing"):
        PostTable.from_columns({k: v for k, v in columns.items() if k != "score"})
    columns["phash"] = np.zeros(2, dtype=np.uint64)
    with pytest.raises(ValueError, match="length"):
        PostTable.from_columns(columns)


@pytest.fixture(scope="module")
def small_world():
    return SyntheticWorld.generate(WorldConfig(seed=5, events_unit=6.0, noise_scale=0.3))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=8), st.integers(0, 400))
def test_table_grown_from_batches_equals_world_slice(small_world, sizes, stop):
    posts = small_world.posts
    stop = min(stop, len(posts))
    bounds = np.cumsum([0] + sizes)
    bounds = np.minimum(bounds, stop).tolist() + [stop]
    batches = [posts[a:b] for a, b in zip(bounds, bounds[1:])]
    assert PostTable.concat(batches) == posts[:stop]
