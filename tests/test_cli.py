"""End-to-end checks of the command-line interface via main(argv)."""
import errno
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wythlab import suites
from wythlab.catalog import ADJUST_SYSTEMS, adjust_dfao, builtin_dfaos
from wythlab.cli import main, pairs_to_json, read_pairs_csv, write_pairs_csv
from wythlab.fibnum import sqrt5_times_leq
from wythlab.games import (
    PNTable,
    PposSequence,
    kspec,
    ppos_list,
    read_table_cache,
    solve,
    wspec,
)
from wythlab.morphisms import Coding, eval_dfao, k2_adjust_prefix
from wythlab.walnut import from_walnut

TABLE1_G = (1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1)
REPO_ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv):
    """(exit code, stderr) of main(argv) with its output captured; any
    other exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestSolveCommand:
    def test_k2_csv_first_row(self, capsys):
        code, out, _ = run(capsys, ["solve", "--game", "K", "--ell", "2",
                                    "--bound", "60"])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,a_n,b_n"
        assert lines[1] == "0,3,6"

    def test_k0_rows(self, capsys):
        code, out, _ = run(capsys, ["solve", "--game", "K", "--ell", "0",
                                    "--bound", "30"])
        assert code == 0
        assert "0,1,2" in out and "1,3,5" in out and "2,4,7" in out

    @pytest.mark.parametrize("ell", [2**63 - 1, 10**30])
    def test_ell_past_the_box_runs(self, capsys, ell):
        # every ell >= 2 * bound makes the whole box terminal; these used to
        # end in an OverflowError traceback, exit 1, read as a FAIL
        want = run(capsys, ["solve", "--game", "K", "--ell", "101", "--bound", "50"])
        assert want == (0, "n,a_n,b_n\r\n", "")  # the header row alone
        assert run(capsys, ["solve", "--game", "K", "--ell", str(ell),
                            "--bound", "50"]) == want
        code, out, _ = run(capsys, ["verify", "kernel", "--ell", str(ell), "--bound", "50"])
        assert code == 0 and out.endswith("2/2 checks passed\n")

    def test_w3_includes_origin(self, capsys):
        code, out, _ = run(capsys, ["solve", "--game", "W", "--k", "3",
                                    "--bound", "20"])
        assert code == 0
        assert out.splitlines()[1] == "0,0,0"

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, ["solve", "--game", "K", "--ell", "2",
                                    "--bound", "60", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["game"] == "K" and doc["ell"] == 2 and doc["k"] is None
        assert doc["bound"] == 60
        assert doc["pairs"][0] == [0, 3, 6]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        code, out, _ = run(capsys, ["solve", "--game", "K", "--ell", "1",
                                    "--bound", "40", "--out", str(path)])
        assert code == 0 and out == ""
        with open(path) as fh:
            pp = read_pairs_csv(fh, ell=1)
        assert pp.pairs == ppos_list(solve(kspec(1), 40)).pairs

    def test_cache_format(self, capsys, tmp_path):
        path = tmp_path / "k2.pn"
        code, _, _ = run(capsys, ["solve", "--game", "K", "--ell", "2",
                                  "--bound", "50", "--format", "cache",
                                  "--out", str(path)])
        assert code == 0
        table = read_table_cache(path)
        assert table.spec == kspec(2)
        assert np.array_equal(table.ppos, solve(kspec(2), 50).ppos)

    def test_cache_requires_out(self, capsys, monkeypatch):
        def no_solve(spec, bound):
            raise AssertionError("solved before the usage check")

        monkeypatch.setattr("wythlab.cli.solve", no_solve)
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--game", "K", "--ell", "2", "--format", "cache"])
        assert ei.value.code == 2
        assert "--format cache requires --out" in capsys.readouterr().err

    @pytest.mark.parametrize("spec_args", [["W", "--k", "10000000000", "--bound", "5"],
                                           ["K", "--ell", "5000000000"],
                                           ["W", "--k", "10000000000", "--bound", "300"],
                                           ["K", "--ell", "1", "--bound", "4294967296"]])
    def test_cache_header_overflow_is_usage_error(self, capsys, tmp_path, spec_args,
                                                  monkeypatch):
        def no_solve(spec, bound):
            raise AssertionError("solved before the header check")

        monkeypatch.setattr("wythlab.cli.solve", no_solve)
        path = tmp_path / "x.pn"
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--game", *spec_args, "--format", "cache", "--out", str(path)])
        err = capsys.readouterr().err
        assert ei.value.code == 2 and "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "4,294,967,295" in errors[0]
        assert not path.exists()

    def test_missing_parameter(self):
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--game", "K", "--bound", "10"])
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--game", "W", "--bound", "10"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("spec_args,refusal", [
        (["K", "--ell", "2", "--k", "3"], "K variant needs ell >= 0 and no k"),
        (["W", "--k", "2", "--ell", "5"], "W variant needs k >= 1 and no ell"),
    ])
    def test_other_variants_flag_is_usage_error(self, capsys, spec_args, refusal):
        # --k under --game K is not ignored: K^ell_k is a different rule-set
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--game", *spec_args, "--bound", "10"])
        out, err = capsys.readouterr()
        assert ei.value.code == 2 and out == ""
        assert refusal in err

    def test_invalid_parameter(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--game", "K", "--ell", "-3"])
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--game", "K", "--ell", "1", "--bound", "-1"])
        assert ei.value.code == 2
        assert "error: negative bound -1" in capsys.readouterr().err

    def test_oversized_bound(self):
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--game", "K", "--ell", "1", "--bound", "999999"])
        assert ei.value.code == 2

    def test_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "pairs.csv"
        code, _, err = run(capsys, ["solve", "--game", "K", "--ell", "1",
                                    "--bound", "20", "--out", str(path)])
        assert code == 3
        assert "error:" in err


class TestPairSerialization:
    def test_csv_round_trip(self):
        pp = ppos_list(solve(kspec(2), 120))
        buf = io.StringIO()
        write_pairs_csv(pp, buf)
        buf.seek(0)
        assert read_pairs_csv(buf, ell=2) == pp

    def test_csv_skips_blank_rows(self):
        pp = read_pairs_csv(io.StringIO("n,a_n,b_n\n0,2,4\n\n1,3,6\n"), ell=1)
        assert pp.pairs == ((2, 4), (3, 6))

    def test_csv_bad_header(self):
        with pytest.raises(ValueError):
            read_pairs_csv(io.StringIO("x,y,z\n0,1,2\n"))

    def test_csv_out_of_order(self):
        with pytest.raises(ValueError):
            read_pairs_csv(io.StringIO("n,a_n,b_n\n1,3,6\n"))

    def test_csv_refuses_values_past_int64(self):
        with pytest.raises(ValueError, match="outside the int64 range"):
            read_pairs_csv(io.StringIO(
                "n,a_n,b_n\n0,9223372036854775808,9223372036854775813\n"))

    def test_json_has_trailing_newline(self):
        pp = ppos_list(solve(kspec(2), 40))
        assert pairs_to_json(kspec(2), 40, pp).endswith("\n")


# (name, rule-set) of every item of `verify all` at its default bounds.
VERIFY_ALL_ITEMS = [
    ("blocking/W1-equals-K0", "W k=1"),
    ("blocking/W2/absorbing", "W k=2"),
    ("blocking/W2/set-equality", "W k=2"),
    ("blocking/W2/stable", "W k=2"),
    ("blocking/W3/absorbing", "W k=3"),
    ("blocking/W3/set-equality", "W k=3"),
    ("blocking/W3/stable", "W k=3"),
    ("closed-forms/K1/absorbing", "K ell=1"),
    ("closed-forms/K1/set-equality", "K ell=1"),
    ("closed-forms/K1/stable", "K ell=1"),
    ("closed-forms/K2/absorbing", "K ell=2"),
    ("closed-forms/K2/set-equality", "K ell=2"),
    ("closed-forms/K2/stable", "K ell=2"),
    ("closed-forms/K3/absorbing", "K ell=3"),
    ("closed-forms/K3/set-equality", "K ell=3"),
    ("closed-forms/K3/stable", "K ell=3"),
    ("closed-forms/K4/absorbing", "K ell=4"),
    ("closed-forms/K4/set-equality", "K ell=4"),
    ("closed-forms/K4/stable", "K ell=4"),
    ("discrepancy/K1/density", "K ell=1"),
    ("discrepancy/K1/profile", "K ell=1"),
    ("discrepancy/K2/density", "K ell=2"),
    ("discrepancy/K2/profile", "K ell=2"),
    ("discrepancy/K3/density", "K ell=3"),
    ("discrepancy/K3/profile", "K ell=3"),
    ("discrepancy/K4/density", "K ell=4"),
    ("discrepancy/K4/profile", "K ell=4"),
    ("discrepancy/K5/density", "K ell=5"),
    ("discrepancy/K5/profile", "K ell=5"),
    ("discrepancy/K6/density", "K ell=6"),
    ("discrepancy/K6/profile", "K ell=6"),
    ("discrepancy/K7/density", "K ell=7"),
    ("discrepancy/K7/profile", "K ell=7"),
    ("discrepancy/K8/density", "K ell=8"),
    ("discrepancy/K8/profile", "K ell=8"),
    ("kernel/K-ell=0/absorbing", "K ell=0"),
    ("kernel/K-ell=0/stable", "K ell=0"),
    ("kernel/K-ell=1/absorbing", "K ell=1"),
    ("kernel/K-ell=1/stable", "K ell=1"),
    ("kernel/K-ell=2/absorbing", "K ell=2"),
    ("kernel/K-ell=2/stable", "K ell=2"),
    ("kernel/K-ell=3/absorbing", "K ell=3"),
    ("kernel/K-ell=3/stable", "K ell=3"),
    ("kernel/K-ell=4/absorbing", "K ell=4"),
    ("kernel/K-ell=4/stable", "K ell=4"),
    ("kernel/W-k=1/absorbing", "W k=1"),
    ("kernel/W-k=1/stable", "W k=1"),
    ("kernel/W-k=2/absorbing", "W k=2"),
    ("kernel/W-k=2/stable", "W k=2"),
    ("kernel/W-k=3/absorbing", "W k=3"),
    ("kernel/W-k=3/stable", "W k=3"),
    ("mex/K0/counting", "K ell=0"),
    ("mex/K0/partition", "K ell=0"),
    ("mex/K0/solver-equality", "K ell=0"),
    ("mex/K1/counting", "K ell=1"),
    ("mex/K1/partition", "K ell=1"),
    ("mex/K1/solver-equality", "K ell=1"),
    ("mex/K2/counting", "K ell=2"),
    ("mex/K2/partition", "K ell=2"),
    ("mex/K2/solver-equality", "K ell=2"),
    ("mex/K3/counting", "K ell=3"),
    ("mex/K3/partition", "K ell=3"),
    ("mex/K3/solver-equality", "K ell=3"),
    ("mex/K4/counting", "K ell=4"),
    ("mex/K4/partition", "K ell=4"),
    ("mex/K4/solver-equality", "K ell=4"),
    ("mex/K5/counting", "K ell=5"),
    ("mex/K5/partition", "K ell=5"),
    ("mex/K5/solver-equality", "K ell=5"),
    ("mex/K6/counting", "K ell=6"),
    ("mex/K6/partition", "K ell=6"),
    ("mex/K6/solver-equality", "K ell=6"),
    ("morphic/k2-adjust/definition-vs-recurrence", "K ell=2"),
    ("morphic/k2-adjust/dfao-vs-word", "K ell=2"),
    ("morphic/k3-adjust/dfao-vs-word", "K ell=3"),
    ("morphic/k4-adjust/dfao-vs-word", "K ell=4"),
    ("morphic/partition-word/K0", "K ell=0"),
    ("morphic/partition-word/K1", "K ell=1"),
    ("morphic/partition-word/K2", "K ell=2"),
    ("morphic/partition-word/K3", "K ell=3"),
    ("redundancy/K-ell=1", "K ell=1"),
    ("redundancy/K-ell=2", "K ell=2"),
    ("redundancy/K-ell=3", "K ell=3"),
    ("redundancy/K-ell=4", "K ell=4"),
    ("redundancy/W-k=2", "W k=2"),
    ("redundancy/W-k=3", "W k=3"),
]


class TestVerifyCommand:
    def test_blocking_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "blocking", "--bound", "60"])
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        assert "checks passed" in out.splitlines()[-1]

    def test_filtered_kernel(self, capsys):
        code, out, _ = run(capsys, ["verify", "kernel", "--ell", "1",
                                    "--bound", "80"])
        assert code == 0
        names = [ln.split()[0] for ln in out.splitlines()[:-1]]
        assert all("ell=1" in n or "k=" in n for n in names)

    def test_all_item_set(self):
        items = suites.run_suite("all")
        assert [(it.name, it.spec) for it in items] == VERIFY_ALL_ITEMS
        bounds = {it.name: it.bound for it in items}
        assert bounds["blocking/W1-equals-K0"] == suites.W_BOUND_DEFAULT == 400

    def test_all_output_is_pinned(self, capsys):
        # every verdict and detail of `verify all`, with the timings removed;
        # a change of storage or algorithm must leave this digest unchanged
        code, out, _ = run(capsys, ["verify", "all"])
        out = re.sub(r"(PASS|FAIL) +\d+\.\d+s  ", r"\1  ", out)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7383e7b2c8de6d93c20efe9dd1c944cba6242274039d248e5e61ab27c67140c6")

    @pytest.mark.parametrize("suite,names", [
        ("kernel", ["kernel/K-ell=2/absorbing", "kernel/K-ell=2/stable",
                    "kernel/W-k=3/absorbing", "kernel/W-k=3/stable"]),
        ("redundancy", ["redundancy/K-ell=2", "redundancy/W-k=3"]),
    ])
    def test_ell_and_k_select_both_rule_sets(self, capsys, suite, names):
        code, out, _ = run(capsys, ["verify", suite, "--ell", "2", "--k", "3"])
        assert code == 0
        assert [ln.split()[0] for ln in out.splitlines()[:-1]] == names
        assert out.splitlines()[-1] == f"{len(names)}/{len(names)} checks passed"

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "nonsense"])
        assert ei.value.code == 2
        with pytest.raises(KeyError, match="unknown suite 'nope'"):
            suites.run_suite("nope")

    @pytest.mark.parametrize("argv", [
        ["closed-forms", "--ell", "5"],
        ["discrepancy", "--ell", "0"],
        ["blocking", "--k", "4"],
        ["kernel", "--k", "0"],
        ["mex", "--bound", "-5"],
        ["redundancy", "--bound", "-1"],
        ["morphic", "--ell", "7"],
        ["blocking", "--bound", "-1"],
    ])
    def test_domain_error_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            main(["verify"] + argv)
        captured = capsys.readouterr()
        assert ei.value.code == 2
        assert "error:" in captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("suite", ["discrepancy", "morphic", "mex"])
    def test_unallocatable_bound_is_usage_error(self, capsys, suite):
        # arrays of 10^15 entries exceed any 128 TiB address space, so the
        # allocation fails at once; smaller bounds might allocate lazily
        with pytest.raises(SystemExit) as ei:
            main(["verify", suite, "--bound", str(10**15)])
        captured = capsys.readouterr()
        assert ei.value.code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "allocate" in errors[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("suite,flag", [
        ("closed-forms", "--k"),
        ("mex", "--k"),
        ("discrepancy", "--k"),
        ("morphic", "--k"),
        ("blocking", "--ell"),
        ("all", "--k"),
        ("all", "--ell"),
    ])
    def test_unread_argument_is_usage_error(self, capsys, suite, flag):
        with pytest.raises(SystemExit) as ei:
            main(["verify", suite, flag, "2"])
        captured = capsys.readouterr()
        assert ei.value.code == 2
        assert f"suite {suite!r} does not read {flag}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bound", [0, 1, 29])
    def test_redundancy_box_shorter_than_a_move(self, capsys, bound):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "redundancy", "--bound", str(bound)])
        captured = capsys.readouterr()
        assert ei.value.code == 2
        assert "needs --bound >= 30" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("ell,least", [(None, 4), (1, 2), (4, 1)])
    def test_morphic_horizon_below_an_offset(self, capsys, ell, least):
        # least is the largest offset of a selected partition word, and 1
        argv = ["verify", "morphic"] + ([] if ell is None else ["--ell", str(ell)])
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--bound", str(least - 1)])
        captured = capsys.readouterr()
        assert ei.value.code == 2
        assert f"suite 'morphic' needs --bound >= {least}," in captured.err
        assert captured.out == ""
        code, out, _ = run(capsys, argv + ["--bound", str(least)])
        assert code == 0 and "FAIL" not in out

    def test_redundancy_at_the_longest_move_still_runs(self, capsys):
        # the witness of (25, 25) lies outside [0,30]^2: inconclusive, not FAIL
        with pytest.raises(SystemExit) as ei:
            main(["verify", "redundancy", "--ell", "1", "--bound", "30"])
        captured = capsys.readouterr()
        assert ei.value.code == 2
        assert ("no K ell=1 witness for move (25, 25) in [0,30]^2; "
                "the box is too small") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value,least", [("--ell", 2, 52), ("--k", 2, 34)])
    def test_redundancy_least_bound_with_every_witness(self, flag, value, least):
        argv = ["verify", "redundancy", flag, str(value), "--bound"]
        code, err = exit_code(argv + [str(least - 1)])
        assert code == 2 and "the box is too small" in err
        assert exit_code(argv + [str(least)]) == (0, "")

    def test_blocking_negative_bound_message(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "blocking", "--bound", "-1"])
        assert ei.value.code == 2
        assert "negative bound -1" in capsys.readouterr().err

    @pytest.mark.parametrize("ell,failing,least", [(1, 210, 586), (8, 648, 3284)])
    def test_discrepancy_below_its_horizon_domain(self, capsys, ell, failing, least):
        # least is the first horizon N with sqrt5 * 150 ell <= N - 50 ell - 200
        assert not sqrt5_times_leq(150 * ell, least - 1 - 50 * ell - 200)
        assert sqrt5_times_leq(150 * ell, least - 50 * ell - 200)
        argv = ["verify", "discrepancy", "--ell", str(ell), "--bound"]
        for bound in (failing, least - 1):
            with pytest.raises(SystemExit) as ei:
                main(argv + [str(bound)])
            captured = capsys.readouterr()
            assert ei.value.code == 2
            assert f"needs --bound >= {least} for ell {ell}" in captured.err
            assert captured.out == ""
        code, out, _ = run(capsys, argv + [str(least)])
        assert code == 0
        assert out.splitlines()[-1] == "2/2 checks passed"

    def test_closed_forms_stay_linear_in_memory(self):
        tracemalloc.start()
        try:
            items = suites.suite_closed_forms(ell=2, bound=4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [it.result.ok for it in items] == [True] * 3
        assert peak < 4 * 2**20

    def test_mex_memory_does_not_grow_with_ell(self):
        # for ell >= bound the first pair already lies past the box
        tracemalloc.start()
        try:
            items = suites.run_suite("mex", ell=10**8, bound=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [it.result.ok for it in items] == [True] * 3
        assert peak < 2**20

    def test_bound_zero_is_checked_at_zero(self, capsys):
        code, out, _ = run(capsys, ["verify", "kernel", "--ell", "2",
                                    "--bound", "0"])
        assert code == 0
        assert out.splitlines()[-1] == "2/2 checks passed"
        assert "stable on [0,0]^2" in out and "absorbing on [0,0]^2" in out

    def test_closed_forms_below_terminal_threshold(self, capsys):
        code, out, _ = run(capsys, ["verify", "closed-forms", "--ell", "3",
                                    "--bound", "1"])
        assert code == 0
        assert out.splitlines()[-1] == "3/3 checks passed"

    @pytest.mark.parametrize("cell,closed,solver", [
        ((3, 6), False, True),   # a P-pair dropped from the closed form
        ((2, 9), True, False),   # an N-cell added, row-major before (3, 6)
    ])
    def test_set_equality_names_first_difference(self, capsys, monkeypatch,
                                                 cell, closed, solver):
        real = suites.ch.closed_form_table

        def doctored(spec, bound):
            table = real(spec, bound)
            cells = set(zip(table.xs.tolist(), table.ys.tolist())) ^ {cell}
            return PNTable.from_cells(spec, bound, *zip(*cells))

        monkeypatch.setattr(suites.ch, "closed_form_table", doctored)
        code, out, _ = run(capsys, ["verify", "closed-forms", "--ell", "2",
                                    "--bound", "40"])
        assert code == 1
        x, y = cell
        assert (f"K^2: first difference at ({x},{y}); closed form says {closed}, "
                f"solver says {solver}") in out
        assert f"counterexample: {cell}" in out

    def test_mex_equality_names_first_cell(self, capsys, monkeypatch):
        real = suites.ch.mex_sequence

        def doctored(ell, count):
            pairs = list(real(ell, count).pairs)
            assert pairs[1] == (4, 8)
            pairs[1] = (4, 9)
            return PposSequence(ell, pairs)

        monkeypatch.setattr(suites.ch, "mex_sequence", doctored)
        code, out, _ = run(capsys, ["verify", "mex", "--ell", "2", "--bound", "40"])
        assert code == 1
        assert ("K^2: first difference at (4,8); mex recursion says False, "
                "solver says True") in out
        assert "counterexample: (4, 8)" in out

    def test_mex_partition_names_a_stray_value(self, capsys, monkeypatch):
        real = suites.ch.mex_sequence

        def doctored(ell, count):
            return PposSequence(ell, [(0, 10**6), (1, 10**6 + 1), *real(ell, count).pairs])

        monkeypatch.setattr(suites.ch, "mex_sequence", doctored)
        code, out, _ = run(capsys, ["verify", "mex", "--ell", "2", "--bound", "40"])
        assert code == 1
        assert "value 0 outside 3.." in out
        assert "counterexample: 0" in out

    def test_mex_counting_fails_on_pairs_out_of_order(self, capsys, monkeypatch):
        # the set is K^2's, so the partition passes; counting_check refuses
        # the order, which is a FAIL of the recursion, not a usage error
        real = suites.ch.mex_sequence

        def doctored(ell, count):
            pairs = list(real(ell, count).pairs)
            pairs[3], pairs[7] = pairs[7], pairs[3]
            return PposSequence(ell, pairs)

        monkeypatch.setattr(suites.ch, "mex_sequence", doctored)
        code, out, _ = run(capsys, ["verify", "mex", "--ell", "2", "--bound", "40"])
        assert code == 1
        lines = {ln.split()[0]: ln for ln in out.splitlines()}
        assert " PASS " in lines["mex/K2/partition"]
        assert " FAIL " in lines["mex/K2/counting"]
        assert lines["mex/K2/counting"].endswith("pairs refused: the a- and b-sequences "
                                                 "must be strictly increasing")

    def test_mex_partition_names_a_missing_value(self, capsys, monkeypatch):
        real = suites.ch.mex_sequence

        def doctored(ell, count):
            pairs = list(real(ell, count).pairs)
            assert pairs[1] == (4, 8)
            del pairs[1]
            return PposSequence(ell, pairs)

        monkeypatch.setattr(suites.ch, "mex_sequence", doctored)
        code, out, _ = run(capsys, ["verify", "mex", "--ell", "2", "--bound", "40"])
        assert code == 1
        line = next(ln for ln in out.splitlines() if ln.startswith("mex/K2/partition"))
        assert " FAIL " in line and line.endswith("value 4 in neither sequence")
        assert "counterexample: 4\n" in out

    def test_k2_oracles_name_first_disagreement(self, capsys, monkeypatch):
        real = suites.k2_adjust_prefix_by_recurrence

        def doctored(n):
            values = list(real(n))
            values[7] ^= 1
            return tuple(values)

        monkeypatch.setattr(suites, "k2_adjust_prefix_by_recurrence", doctored)
        code, out, _ = run(capsys, ["verify", "morphic", "--ell", "2",
                                    "--bound", "50"])
        assert code == 1
        assert "definitions disagree at n=7" in out
        assert "counterexample: 7\n" in out

    def test_w1_equals_k0_names_both_tables(self, capsys, monkeypatch):
        real = suites.solve

        def doctored(spec, bound):
            table = real(spec, bound)
            if spec != wspec(1):
                return table
            cells = set(zip(table.xs.tolist(), table.ys.tolist())) ^ {(2, 9)}
            return PNTable.from_cells(spec, bound, *zip(*cells))

        monkeypatch.setattr(suites, "solve", doctored)
        code, out, _ = run(capsys, ["verify", "blocking", "--k", "1", "--bound", "40"])
        assert code == 1
        assert ("W^1 vs K^0: first difference at (2,9); W^1 says True, "
                "K^0 says False") in out

    def test_dfao_vs_word_names_first_mismatch(self, capsys, monkeypatch):
        morphism, coding = ADJUST_SYSTEMS[2]
        doctored = Coding((0,) + coding.outputs[1:])  # letter 0 starts the word
        monkeypatch.setattr(suites, "ADJUST_SYSTEMS", {2: (morphism, doctored)})
        code, out, _ = run(capsys, ["verify", "morphic", "--ell", "2",
                                    "--bound", "50"])
        assert code == 1
        assert "automaton says 1, word says 0 at n=0" in out

    def test_counterexamples_are_python_values(self, monkeypatch):
        # the partition's three kinds and both morphic oracles, doctored as
        # above: a numpy integer would print as np.int64(4)
        def python_values(value):
            if isinstance(value, tuple):
                return all(map(python_values, value))
            return type(value) in (int, str)

        pairs = suites.ch.mex_sequence(2, 100).pairs  # (3, 6), (4, 8), ...
        results = []
        for doctored in ([(0, 10**6), (1, 10**6 + 1), *pairs],
                         [pairs[0], *pairs[2:]],
                         [pairs[0], (4, 6), *pairs[2:]]):
            monkeypatch.setattr(suites.ch, "mex_sequence",
                                lambda ell, count, p=doctored: PposSequence(ell, p))
            results += [it.result for it in suites.run_suite("mex", ell=2, bound=40)
                        if it.name == "mex/K2/partition"]
        monkeypatch.undo()
        real = suites.k2_adjust_prefix_by_recurrence
        monkeypatch.setattr(suites, "k2_adjust_prefix_by_recurrence",
                            lambda n: (1 - real(n)[0], *real(n)[1:]))
        morphism, coding = ADJUST_SYSTEMS[2]
        monkeypatch.setattr(suites, "ADJUST_SYSTEMS",
                            {2: (morphism, Coding((0,) + coding.outputs[1:]))})
        results += [it.result for it in suites.run_suite("morphic", ell=2, bound=50)
                    if it.name.startswith("morphic/k2-adjust/")]
        assert [r.detail for r in results] == [
            "value 0 outside 3..163", "value 4 in neither sequence",
            "value 6 appears in both sequences", "definitions disagree at n=0",
            "automaton says 1, word says 0 at n=0"]
        assert [r.counterexample for r in results] == [0, 4, 6, 0, 0]
        assert all(python_values(r.counterexample) for r in results)

    def test_a_doctored_ell_fails_only_its_own_items(self, monkeypatch):
        # every ell runs in one suite call, so a check that read another
        # ell's pairs would move the failures off K3
        real = suites.ch.mex_sequence

        def doctored(ell, count):
            pairs = list(real(ell, count).pairs)
            if ell == 3:
                assert pairs[1] == (5, 10)
                del pairs[1]
            return PposSequence(ell, pairs)

        monkeypatch.setattr(suites.ch, "mex_sequence", doctored)
        items = suites.run_suite("mex")
        assert len(items) == 21
        assert [it.name for it in items if not it.result.ok] == [
            "mex/K3/counting", "mex/K3/partition", "mex/K3/solver-equality"]

    def test_every_item_is_timed_once(self, monkeypatch):
        real, timed = suites._timed, []

        def spy(name, spec_label, bound, fn):
            timed.append(real(name, spec_label, bound, fn))
            return timed[-1]

        monkeypatch.setattr(suites, "_timed", spy)
        items = suites.run_suite("all")
        assert len(timed) == len(items) == len(VERIFY_ALL_ITEMS) == 86
        assert sorted(map(id, timed)) == sorted(map(id, items))  # seconds included


class TestInferCommand:
    def write_prefix(self, tmp_path, values):
        path = tmp_path / "prefix.txt"
        path.write_text(" ".join(str(v) for v in values) + "\n")
        return str(path)

    def test_recovers_builtin_system(self, capsys, tmp_path):
        path = self.write_prefix(tmp_path, k2_adjust_prefix(250))
        out_path = tmp_path / "sys.txt"
        code, out, _ = run(capsys, ["infer", path, "--types", "3",
                                    "--out", str(out_path)])
        assert code == 0
        assert "letters: 6" in out
        assert "block depth: 3" in out
        assert "fibonacci-conjugate: yes" in out
        d = from_walnut(out_path.read_text())
        builtin = adjust_dfao(2)
        for n in range(400):
            assert eval_dfao(d, n) == eval_dfao(builtin, n)

    def test_auto_escalation(self, capsys, tmp_path):
        from wythlab.characterizations import k4_adjust_prefix_bruteforce
        path = self.write_prefix(tmp_path, k4_adjust_prefix_bruteforce(400))
        code, out, _ = run(capsys, ["infer", path])
        assert code == 0
        assert "block depth: 4" in out

    def test_depth_too_shallow(self, capsys, tmp_path):
        from wythlab.characterizations import k4_adjust_prefix_bruteforce
        path = self.write_prefix(tmp_path, k4_adjust_prefix_bruteforce(400))
        code, _, err = run(capsys, ["infer", path, "--types", "3"])
        assert code == 1
        assert "inference failed" in err
        assert "advice:" in err

    def test_corrupted_prefix(self, capsys, tmp_path):
        values = list(k2_adjust_prefix(250))
        values[137] ^= 1
        path = self.write_prefix(tmp_path, values)
        code, _, err = run(capsys, ["infer", path, "--types", "3"])
        assert code == 1
        assert "advice:" in err

    def test_constant_sequence_one_state(self, capsys, tmp_path):
        path = self.write_prefix(tmp_path, [1] * 80)
        out_path = tmp_path / "const.txt"
        code, out, _ = run(capsys, ["infer", path, "--out", str(out_path)])
        assert code == 0
        d = from_walnut(out_path.read_text())
        assert d.state_count == 1
        for n in (0, 1, 5, 144):
            assert eval_dfao(d, n) == 1

    def test_letter_sequences_print_but_do_not_export(self, capsys, tmp_path):
        from wythlab.catalog import FIBONACCI_AB, FIBONACCI_MORPHISM
        from wythlab.morphisms import fixed_point_prefix
        word = FIBONACCI_AB.map(fixed_point_prefix(FIBONACCI_MORPHISM, 0, 120))
        path = self.write_prefix(tmp_path, word)
        code, out, _ = run(capsys, ["infer", path])
        assert code == 0
        assert "letters: 2" in out
        out_path = tmp_path / "nope.txt"
        code, _, err = run(capsys, ["infer", path, "--out", str(out_path)])
        assert code == 1
        assert "integer sequence values" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["infer", str(tmp_path / "absent.txt")])
        assert code == 3
        assert "error:" in err

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(SystemExit) as ei:
            main(["infer", str(path)])
        assert ei.value.code == 2

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "prefix.txt"
        path.write_bytes(b"1 0 1 \xff 1 0")
        with pytest.raises(SystemExit) as ei:
            main(["infer", str(path)])
        assert ei.value.code == 2
        assert f"error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("types", ["soon", "0", "-2"])
    def test_bad_types_value(self, tmp_path, types):
        path = tmp_path / "prefix.txt"
        path.write_text("1 0 1")
        with pytest.raises(SystemExit) as ei:
            main(["infer", str(path), "--types", types])
        assert ei.value.code == 2


class TestEvalDfaoCommand:
    def test_builtin_upto(self, capsys):
        code, out, _ = run(capsys, ["eval-dfao", "k2-adjust", "--upto", "20"])
        assert code == 0
        assert tuple(int(v) for v in out.split()) == TABLE1_G

    def test_builtin_single(self, capsys):
        code, out, _ = run(capsys, ["eval-dfao", "k2-adjust", "--n", "7"])
        assert code == 0
        assert out.strip() == "1"

    def test_file_automaton(self, capsys, tmp_path):
        path = tmp_path / "aut.txt"
        assert main(["export", "--automaton", "k3-adjust",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["eval-dfao", str(path), "--upto", "30"])
        assert code == 0
        builtin = adjust_dfao(3)
        want = " ".join(str(eval_dfao(builtin, n)) for n in range(31))
        assert out.strip() == want

    def test_negative_index(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["eval-dfao", "k2-adjust", "--n", "-1"])
        assert ei.value.code == 2
        # the index is checked before the automaton is opened: a missing path
        # exited 3 and a malformed file 1
        bad = tmp_path / "bad.txt"
        bad.write_text("not an automaton\n")
        for path in (tmp_path / "absent.txt", bad):
            for flag in ("--n", "--upto"):
                with pytest.raises(SystemExit) as ei:
                    main(["eval-dfao", str(path), flag, "-1"])
                assert ei.value.code == 2
                assert f"{flag} must be a natural: -1" in capsys.readouterr().err

    def test_requires_exactly_one_mode(self):
        with pytest.raises(SystemExit) as ei:
            main(["eval-dfao", "k2-adjust"])
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            main(["eval-dfao", "k2-adjust", "--n", "1", "--upto", "5"])
        assert ei.value.code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["eval-dfao", str(tmp_path / "absent.txt"),
                                    "--n", "0"])
        assert code == 3
        assert "error:" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not an automaton\n")
        code, out, err = run(capsys, ["eval-dfao", str(path), "--n", "0"])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: expected leading")

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"msd_fib\n0 1\xff\n")
        code, _, err = run(capsys, ["eval-dfao", str(path), "--n", "3"])
        assert code == 1
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("mode", [["--n", "3"], ["--upto", "6"]])
    def test_undefined_transition(self, capsys, tmp_path, mode):
        # state 0 has no 0-edge, so rep_F(3) = "100" gets stuck
        path = tmp_path / "partial.txt"
        path.write_text("msd_fib\n0 1\n1 -> 1\n\n1 2\n0 -> 0\n")
        code, out, err = run(capsys, ["eval-dfao", str(path)] + mode)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: undefined transition")
        assert "at n=3" in err


class TestExportCommand:
    def test_all_builtins_round_trip(self, capsys, tmp_path):
        for name, d in builtin_dfaos().items():
            path = tmp_path / f"{name}.txt"
            assert main(["export", "--automaton", name,
                         "--out", str(path)]) == 0
            assert from_walnut(path.read_text()) == d
        capsys.readouterr()

    def test_unknown_name(self):
        with pytest.raises(SystemExit) as ei:
            main(["export", "--automaton", "k9-adjust", "--out", "/dev/null"])
        assert ei.value.code == 2

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run(capsys, ["export", "--automaton", "k2-adjust",
                                    "--out", str(tmp_path / "no" / "x.txt")])
        assert code == 3
        assert "error:" in err


class _FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestIOErrors:
    """Any failed read or write, stdout included, exits 3 with one message."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--game", "K", "--ell", "1", "--bound", "20"],
        ["verify", "mex"],
        ["infer", "{tmp}/prefix.txt"],
        ["eval-dfao", "k2-adjust", "--n", "5"],
        ["eval-dfao", "k2-adjust", "--upto", "5"],
        ["export", "--automaton", "k2-adjust", "--out", "{tmp}/no/x.txt"],
    ], ids=["solve", "verify", "infer", "eval-dfao-n", "eval-dfao-upto", "export"])
    def test_unwritable_stdout_exits_3(self, capsys, monkeypatch, tmp_path, argv):
        (tmp_path / "prefix.txt").write_text(
            " ".join(map(str, k2_adjust_prefix(200))))
        monkeypatch.setattr(sys, "stdout", _FullStdout())
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("target", ["/dev/full", "closed pipe", "/dev/full both"])
    def test_console_stdout_failure_exits_3(self, target, buffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "wythlab.cli", "verify", "mex"]
        if target.startswith("/dev/full"):
            with open("/dev/full", "w") as full:
                # "both" leaves the error report itself unwritable
                stderr = full if target.endswith("both") else subprocess.PIPE
                proc = subprocess.run(argv, stdout=full, stderr=stderr,
                                      text=True, env=env, timeout=120)
            code, err = proc.returncode, proc.stderr
        else:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True, env=env)
            proc.stdout.close()  # before the child, still importing, writes
            err = proc.stderr.read()
            proc.stderr.close()
            code = proc.wait(timeout=120)
        want = errno.EPIPE if target == "closed pipe" else errno.ENOSPC
        assert code == 3
        if err is not None:
            assert err.splitlines() == [f"error: [Errno {want}] {os.strerror(want)}"]

    def test_oversized_verify_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "kernel", "--bound", "40000"])
        assert ei.value.code == 2
        assert "exceeds the solver cap" in capsys.readouterr().err


class TestFuzzedInputs:
    """Every input ends in an exit code with a message, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(suite=st.sampled_from(sorted(suites.SUITES) + ["all"]),
           ell=st.none() | st.integers(-2, 9),
           k=st.none() | st.integers(-1, 5),
           bound=st.integers(-3, 40))
    def test_verify_arguments(self, suite, ell, k, bound):
        argv = ["verify", suite, "--bound", str(bound)]
        argv += [] if ell is None else ["--ell", str(ell)]
        argv += [] if k is None else ["--k", str(k)]
        code, err = exit_code(argv)
        assert code in (0, 1, 2)
        assert code != 2 or "error:" in err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_eval_dfao_on_mutated_export(self, tmp_path, data):
        name = data.draw(st.sampled_from(sorted(builtin_dfaos())))
        path = tmp_path / "automaton.txt"
        path.unlink(missing_ok=True)
        assert exit_code(["export", "--automaton", name, "--out", str(path)])[0] == 0
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans()):
            bits = st.integers(0, 8 * len(blob) - 1)
            for at in data.draw(st.lists(bits, min_size=1, max_size=4)):
                blob[at // 8] ^= 1 << (at % 8)
        else:
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        path.unlink()
        path.write_bytes(bytes(blob))
        mode = data.draw(st.sampled_from(["--n", "--upto"]))
        code, _ = exit_code(["eval-dfao", str(path), mode,
                             str(data.draw(st.integers(0, 60)))])
        assert code in (0, 1, 2, 3)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["state", "output", "target"]),
           digits=st.integers(sys.get_int_max_str_digits() + 1, 6000))
    def test_eval_dfao_on_oversized_numbers(self, tmp_path, field, digits):
        big = "9" * digits  # more digits than int() converts
        lines = {"state": [f"{big} 1"], "output": [f"0 -{big}"],
                 "target": ["0 1", f"0 -> {big}"]}[field]
        path = tmp_path / "automaton.txt"
        path.write_text("\n".join(["msd_fib", *lines, ""]))
        code, err = exit_code(["eval-dfao", str(path), "--upto", "3"])
        assert code == 1
        assert err.startswith(f"error: {path}: number too long")


@pytest.mark.parametrize("module", ["games", "characterizations", "morphisms",
                                    "fibnum", "walnut", "suites", "cli"])
def test_every_public_name_resolves(module):
    # bench/tracer.py wraps getattr(module, name) for each name in __all__ of
    # these modules, so one stale entry would break every traced run
    mod = importlib.import_module(f"wythlab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # Install this checkout, offline, into tmp_path only: the script
        # tested is the one built from these sources, never one on PATH.
        install = subprocess.run(
            [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
             "--no-build-isolation", "--target", str(tmp_path),
             str(REPO_ROOT)],
            capture_output=True, text=True, timeout=120,
        )
        assert install.returncode == 0, install.stderr
        assert (tmp_path / "wythlab-0.1.0.dist-info").is_dir()
        proc = subprocess.run(
            [str(tmp_path / "bin" / "wythlab"), "eval-dfao", "k2-adjust",
             "--upto", "10"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
        )
        assert proc.returncode == 0
        assert tuple(int(v) for v in proc.stdout.split()) == TABLE1_G[:11]
