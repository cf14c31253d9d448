"""Tests for the disassembler and the repro-cms CLI."""

from __future__ import annotations

import pytest

from repro.isa.assembler import assemble
from repro.isa.decoder import BytesFetcher
from repro.isa.disasm import disassemble, disassemble_text
from repro.tools.cli import main


class TestDisassembler:
    def fetcher(self, source):
        program = assemble(source)
        return BytesFetcher(program.flatten(), base=0), program

    def test_roundtrip_simple(self):
        fetch, program = self.fetcher("""
        .org 0x100
        start:
            mov eax, 5
            add eax, 2
            cli
            hlt
        """)
        lines = disassemble(fetch, 0x100, count=4)
        assert [line.text for line in lines] == [
            "mov eax, 0x5", "add eax, 0x2", "cli", "hlt",
        ]

    def test_raw_bytes_match_length(self):
        fetch, _ = self.fetcher(".org 0\nstart: mov eax, 5\n")
        (line,) = disassemble(fetch, 0, count=1)
        assert len(line.raw) == 6

    def test_invalid_bytes_become_data(self):
        fetch = BytesFetcher(bytes([0xFF, 0x00]), base=0)
        lines = disassemble(fetch, 0, count=2)
        assert lines[0].text == ".byte 0xff"
        assert lines[1].text == "nop"

    def test_end_bound(self):
        fetch, _ = self.fetcher(".org 0\nstart: nop\nnop\nnop\nnop\n")
        lines = disassemble(fetch, 0, count=100, end=2)
        assert len(lines) == 2

    def test_text_format(self):
        fetch, _ = self.fetcher(".org 0x40\nstart: jmp start\n")
        text = disassemble_text(fetch, 0x40, count=1)
        assert "00000040:" in text and "jmp 0x40" in text

    def test_stops_at_buffer_edge(self):
        fetch = BytesFetcher(bytes([0x00]), base=0)
        lines = disassemble(fetch, 0, count=5)
        assert len(lines) == 1


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quake_demo2" in out
        assert "win98_boot" in out

    def test_run(self, capsys):
        assert main(["run", "gcc", "--threshold", "6"]) == 0
        out = capsys.readouterr().out
        assert "halted    : True" in out
        assert "mol / instr" in out

    def test_run_interp_only(self, capsys):
        assert main(["run", "gcc", "--interp-only"]) == 0
        out = capsys.readouterr().out
        assert "translations                    0" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "gcc", "--count", "5"]) == 0
        out = capsys.readouterr().out
        assert "mov esp," in out

    def test_translations(self, capsys):
        assert main(["translations", "gcc", "--count", "1",
                     "--threshold", "6"]) == 0
        out = capsys.readouterr().out
        assert "commit" in out and "exit" in out

    def test_trace(self, capsys):
        assert main(["trace", "gcc", "--threshold", "6"]) == 0
        out = capsys.readouterr().out
        assert "translate" in out
        # The ring is followed by the run's ``CMSStats`` summary.
        assert "mol / instr" in out
        assert "translations " in out and "group hits)" in out

    def test_config_flags_apply(self, capsys):
        assert main(["run", "eqntott", "--no-reorder",
                     "--threshold", "8"]) == 0
        # No reordered atoms should have been emitted: the run completes
        # and reports zero speculative loads.
        out = capsys.readouterr().out
        assert "halted    : True" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "nosuchworkload"])

    def test_top_marks_translations_below_compile_threshold(self,
                                                            capsys):
        # dos_boot: its hot loop regions get templates, the rest of its
        # translations never cross the compile threshold.
        assert main(["top", "dos_boot", "--count", "20"]) == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()
                if line.strip().startswith("0x")]
        jit_column = {row[-2] for row in rows}
        assert {"yes", "cold"} <= jit_column
        assert all(row[-1] == "AGGRESSIVE" for row in rows
                   if row[-2] == "cold")


class TestSnapshotCLI:
    """PR 5: the snapshot subcommand and offline top/health modes."""

    def _save(self, tmp_path) -> str:
        path = str(tmp_path / "warm.cms-snapshot.json")
        assert main(["snapshot", "save", path, "gcc",
                     "--threshold", "6"]) == 0
        return path

    def test_save_inspect_load(self, tmp_path, capsys):
        path = self._save(tmp_path)
        capsys.readouterr()
        assert main(["snapshot", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert "repro-cms-snapshot" in out
        assert main(["snapshot", "load", path, "gcc",
                     "--threshold", "6"]) == 0
        out = capsys.readouterr().out
        assert "translations loaded" in out

    def test_run_reports_warm_start(self, tmp_path, capsys):
        path = self._save(tmp_path)
        capsys.readouterr()
        assert main(["run", "gcc", "--threshold", "6",
                     "--snapshot-path", path]) == 0
        out = capsys.readouterr().out
        assert "warm start" in out

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        path = str(tmp_path / "garbage.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not a snapshot")
        assert main(["snapshot", "inspect", path]) == 2
        assert "snapshot" in capsys.readouterr().err

    def test_top_snapshot_without_obs_degrades(self, tmp_path, capsys):
        path = self._save(tmp_path)  # obs off: no profile tables
        capsys.readouterr()
        assert main(["top", "--snapshot", path]) == 2
        err = capsys.readouterr().err
        assert "observability" in err

    def test_health_snapshot_without_obs_degrades(self, tmp_path,
                                                  capsys):
        path = self._save(tmp_path)
        capsys.readouterr()
        assert main(["health", "--snapshot", path]) == 2
        err = capsys.readouterr().err
        assert "observability" in err

    def test_top_and_health_from_obs_snapshot(self, tmp_path, capsys):
        path = str(tmp_path / "warm.cms-snapshot.json")
        assert main(["snapshot", "save", path, "gcc",
                     "--threshold", "6", "--obs"]) == 0
        capsys.readouterr()
        assert main(["top", "--snapshot", path]) == 0
        assert "entry" in capsys.readouterr().out
        assert main(["health", "--snapshot", path]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out or "CONTAINED" in out

    def test_top_without_source_errors(self, capsys):
        assert main(["top"]) == 2
        assert capsys.readouterr().err

    def test_health_session_without_obs_degrades(self, tmp_path,
                                                 capsys):
        session = str(tmp_path / "session.jsonl")
        with open(session, "w", encoding="utf-8") as fh:
            fh.write('{"v": 1, "kind": "other", "seq": 0}\n')
        assert main(["health", "--session", session]) == 2
        assert capsys.readouterr().err
