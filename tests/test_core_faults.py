"""Tests for the deterministic fault-injection harness itself."""

import pytest

from repro.core.faults import ChaosDirective, Fault, FaultInjector, corrupt_file
from repro.utils.retry import TransientError


class TestCorruptFileSmallFiles:
    """Regression: degenerate 0/1/2-byte files must corrupt loudly."""

    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_empty_file_raises(self, tmp_path, mode):
        target = tmp_path / "empty.bin"
        target.write_bytes(b"")
        with pytest.raises(ValueError, match="empty file"):
            corrupt_file(target, mode=mode)
        assert target.read_bytes() == b""  # untouched

    def test_flip_one_byte_file(self, tmp_path):
        target = tmp_path / "one.bin"
        target.write_bytes(b"\x00")
        corrupt_file(target, mode="flip")
        assert target.read_bytes() == b"\xff"

    def test_truncate_one_byte_file_yields_empty(self, tmp_path):
        # Documented: a real, detectable truncation (length 1 -> 0).
        target = tmp_path / "one.bin"
        target.write_bytes(b"\xaa")
        corrupt_file(target, mode="truncate")
        assert target.read_bytes() == b""

    def test_flip_two_byte_file(self, tmp_path):
        target = tmp_path / "two.bin"
        target.write_bytes(b"\x01\x02")
        corrupt_file(target, mode="flip")
        assert target.read_bytes() == b"\x01\xfd"  # byte at len//2 inverted

    def test_truncate_two_byte_file(self, tmp_path):
        target = tmp_path / "two.bin"
        target.write_bytes(b"\x01\x02")
        corrupt_file(target, mode="truncate")
        assert target.read_bytes() == b"\x01"

    def test_always_changes_stored_bytes(self, tmp_path):
        for n in (1, 2, 3, 64):
            for mode in ("flip", "truncate"):
                target = tmp_path / f"f{n}-{mode}.bin"
                original = bytes(range(n % 256))[:n] or b"\x07"
                target.write_bytes(original)
                corrupt_file(target, mode=mode)
                assert target.read_bytes() != original

    def test_unknown_mode_rejected(self, tmp_path):
        target = tmp_path / "x.bin"
        target.write_bytes(b"abc")
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_file(target, mode="shred")


class TestFaultInjectorServingSites:
    def test_serving_sites_fire_and_disarm(self):
        injector = FaultInjector(
            [Fault("serve:classify", TransientError, times=2)]
        )
        for _ in range(2):
            with pytest.raises(TransientError):
                injector.fire("serve:classify")
        injector.fire("serve:classify")  # disarmed: no-op
        injector.fire("serve:probe")  # unarmed site: no-op
        assert injector.fired_sites() == ["serve:classify", "serve:classify"]

    def test_corrupt_fault_requires_path(self):
        injector = FaultInjector([Fault("serve:reload", action="corrupt")])
        with pytest.raises(ValueError, match="without a file path"):
            injector.fire("serve:reload")

    def test_corrupt_fault_damages_reload_checkpoint(self, tmp_path):
        target = tmp_path / "index.ckpt"
        target.write_bytes(b"RPC1" + b"\x00" * 60)
        injector = FaultInjector([Fault("serve:reload", action="corrupt")])
        injector.fire("serve:reload", path=target)
        assert target.read_bytes() != b"RPC1" + b"\x00" * 60


class TestChaosDirectives:
    def test_hang_kill_rejected_by_fire(self):
        injector = FaultInjector([Fault("stream:ingest", action="hang")])
        with pytest.raises(ValueError, match="stream_directive"):
            injector.fire("stream:ingest")

    def test_action_validation(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            Fault("stream:ingest", action="explode")
        with pytest.raises(ValueError, match="delay_s"):
            Fault("stream:ingest", action="hang", delay_s=-1.0)

    def test_chaos_directive_validation(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosDirective("explode")
