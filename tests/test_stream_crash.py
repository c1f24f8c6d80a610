"""Crash enumeration over the stream's on-disk layout.

The WAL is the post log (each post written once, never truncated) and
``stream.ckpt`` holds only derived state.  One uninterrupted run over a
world of a few hundred posts records, after every ``ingest()`` and the
closing forced compaction, the bytes of the WAL and of the checkpoint
and the ingester's :meth:`~repro.stream.StreamIngester.result`.  Every
state a crash can leave is then rebuilt from those bytes in a fresh
directory:

* the WAL cut at every frame boundary of every commit group, beside the
  checkpoint the disk held while that group was written;
* the WAL cut at every byte offset of the final group;
* a compaction's checkpoint write dying before its rename (the old
  checkpoint plus a half-written temporary file) or just after it.

Each state is recovered, compared with the uninterrupted run where it
is one of its states, continued to the end of the stream, and the end
state must equal both the uninterrupted run's and a cold
:func:`repro.core.run_pipeline`'s.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass

import pytest

from repro.communities import SyntheticWorld, WorldConfig
from repro.core import run_pipeline
from repro.stream import StreamConfig, StreamIngester, state_equals
from repro.stream.wal import _HEADER_LEN

_SEGMENT = "wal-00000000.seg"
_CHECKPOINT = "stream.ckpt"
# Ingest reads: three WAL frames of 20 posts per commit group, and a
# final read of 5 posts, one short frame, whose every byte is a cut.
_READ, _LAST_READ = 60, 5


@dataclass
class _Step:
    """The disk and the state after one ingest (or the closing compaction)."""

    wal: bytes
    checkpoint: bytes | None
    n_events: int
    result: object


def _config(directory):
    return StreamConfig(
        wal_dir=directory,
        batch_size=20,
        group_commit=True,
        compact_threshold=0.2,
        fsync=False,
    )


def _reads(n_events):
    starts = list(range(0, n_events - _LAST_READ, _READ)) + [n_events - _LAST_READ]
    return list(zip(starts, starts[1:] + [n_events]))


def _disk(directory):
    checkpoint = directory / _CHECKPOINT
    assert sorted(path.name for path in directory.glob("wal-*.seg")) == [_SEGMENT]
    return (
        (directory / _SEGMENT).read_bytes(),
        checkpoint.read_bytes() if checkpoint.exists() else None,
    )


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The uninterrupted run's steps, the world, and a cold run."""
    world = SyntheticWorld.generate(
        WorldConfig(seed=3, events_unit=3.0, noise_scale=0.5)
    )
    directory = tmp_path_factory.mktemp("uninterrupted")
    source = world.event_source()
    steps = [_Step(b"", None, 0, None)]  # nothing durable yet
    with StreamIngester(world, stream=_config(directory)) as ingester:
        for start, end in _reads(source.n_events):
            ingester.ingest(source.read(start, end - start))
            steps.append(_Step(*_disk(directory), ingester.n_events, ingester.result()))
        ingester.compact(force=True)
        steps.append(_Step(*_disk(directory), ingester.n_events, ingester.result()))
        compactions = ingester.report.compactions
    assert compactions >= 3  # enough checkpoint writes to crash around
    return world, steps, run_pipeline(world)


def _frame_ends(group: bytes):
    """Offsets of the frame boundaries inside one commit group."""
    ends, offset = [0], 0
    while offset < len(group):
        length = int.from_bytes(group[offset + _HEADER_LEN - 4 : offset + _HEADER_LEN], "big")
        offset += _HEADER_LEN + length
        ends.append(offset)
    assert offset == len(group)
    return ends


def _recover_and_continue(tmp_path, run, wal, checkpoint, *, n_events,
                          torn, stray=None, same_as=None):
    """Recover from a crafted crash state, check it, finish the stream."""
    world, steps, cold = run
    directory = tmp_path / "crash"
    directory.mkdir()
    (directory / _SEGMENT).write_bytes(wal)
    if checkpoint is not None:
        (directory / _CHECKPOINT).write_bytes(checkpoint)
    if stray is not None:
        (directory / f"{_CHECKPOINT}.crash.tmp").write_bytes(stray)
    source = world.event_source()
    with StreamIngester(world, stream=_config(directory)) as ingester:
        assert ingester.n_events == n_events
        assert ingester.report.torn_truncated == torn
        if same_as is not None and same_as.result is not None:
            assert state_equals(ingester.result(), same_as.result)
        for start, end in _reads(source.n_events):
            if start >= ingester.n_events:
                ingester.ingest(source.read(start, end - start))
        ingester.compact(force=True)
        result = ingester.result()
    assert state_equals(result, steps[-1].result)
    assert state_equals(result, cold)
    shutil.rmtree(directory)


def test_cut_at_every_frame_boundary(tmp_path, run):
    _, steps, _ = run
    cases = 0
    for before, after in zip(steps, steps[1:]):
        group = after.wal[len(before.wal) :]
        assert after.wal.startswith(before.wal)
        ends = _frame_ends(group)
        for position, cut in enumerate(ends):
            whole = cut == len(group)
            _recover_and_continue(
                tmp_path,
                run,
                before.wal + group[:cut],
                before.checkpoint,
                n_events=after.n_events if whole else before.n_events,
                torn=int(0 < cut < len(group)),
                # No cut of a group that compacted leaves a state the
                # uninterrupted run passed through, but its start does.
                same_as=before if cut == 0 else (
                    after if whole and after.checkpoint == before.checkpoint else None
                ),
            )
            cases += 1
    assert cases >= 2 * (len(steps) - 1)


def test_cut_at_every_byte_of_the_final_group(tmp_path, run):
    _, steps, _ = run
    # The last ingest's group; the closing compaction appends nothing.
    before, after = steps[-3], steps[-2]
    assert steps[-1].wal == after.wal
    group = after.wal[len(before.wal) :]
    assert len(_frame_ends(group)) == 2  # one frame
    for cut in range(len(group) + 1):
        whole = cut == len(group)
        _recover_and_continue(
            tmp_path,
            run,
            before.wal + group[:cut],
            before.checkpoint,
            n_events=after.n_events if whole else before.n_events,
            torn=int(0 < cut < len(group)),
            same_as=before if cut == 0 else None,
        )


def test_crash_before_and_after_checkpoint_rename(tmp_path, run):
    _, steps, _ = run
    renames = 0
    for before, after in zip(steps, steps[1:]):
        if after.checkpoint == before.checkpoint:
            continue
        renames += 1
        # Before the rename: the whole group is durable, the old
        # checkpoint is in place and the new one lies half-written in
        # its temporary file.
        _recover_and_continue(
            tmp_path,
            run,
            after.wal,
            before.checkpoint,
            n_events=after.n_events,
            torn=0,
            stray=after.checkpoint[: len(after.checkpoint) // 2],
        )
        # Just after it: the state the uninterrupted run reached.
        _recover_and_continue(
            tmp_path,
            run,
            after.wal,
            after.checkpoint,
            n_events=after.n_events,
            torn=0,
            same_as=after,
        )
    assert renames >= 3
