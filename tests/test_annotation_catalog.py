"""Tests for the meme catalog."""

import pytest

from repro.annotation.catalog import (
    CATEGORIES,
    DEFAULT_CATALOG,
    CatalogEntry,
)


class TestCatalogEntry:
    def test_category_validated(self):
        with pytest.raises(ValueError):
            CatalogEntry(name="x", family="y", category="gifs")

    def test_racist_and_politics_flags(self):
        entry = CatalogEntry(
            name="x", family="y", tags=frozenset({"antisemitism", "trump"})
        )
        assert entry.is_racist and entry.is_politics

    def test_neutral_by_default(self):
        entry = CatalogEntry(name="x", family="y")
        assert not entry.is_racist and not entry.is_politics


class TestDefaultCatalog:
    def test_unique_names(self):
        names = [entry.name for entry in DEFAULT_CATALOG]
        assert len(names) == len(set(names))

    def test_papers_headliners_present(self):
        names = {entry.name for entry in DEFAULT_CATALOG}
        for required in (
            "pepe-the-frog",
            "smug-frog",
            "happy-merchant",
            "donald-trump",
            "make-america-great-again",
            "roll-safe",
        ):
            assert required in names

    def test_happy_merchant_is_racist_not_politics_group(self):
        merchant = next(e for e in DEFAULT_CATALOG if e.name == "happy-merchant")
        assert merchant.is_racist

    def test_trump_entry_is_people_category(self):
        trump = next(e for e in DEFAULT_CATALOG if e.name == "donald-trump")
        assert trump.category == "people"
        assert trump.is_politics

    def test_every_category_represented(self):
        present = {entry.category for entry in DEFAULT_CATALOG}
        for category in CATEGORIES:
            assert category in present, f"no entries for {category}"

    def test_memes_dominate(self):
        categories = [entry.category for entry in DEFAULT_CATALOG]
        assert categories.count("memes") > categories.count("people")

    def test_group_helpers(self):
        racist = [e for e in DEFAULT_CATALOG if e.is_racist]
        politics = [e for e in DEFAULT_CATALOG if e.is_politics]
        assert racist and politics
        assert all(e.is_racist for e in racist)
        assert all(e.is_politics for e in politics)
        # The paper: politics-related memes outnumber racist ones.
        assert len(politics) > len(racist)

    def test_frog_family_large_enough_for_fig6(self):
        frogs = [e for e in DEFAULT_CATALOG if e.family == "frog"]
        assert len(frogs) >= 4
