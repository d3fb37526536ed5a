import argparse
import csv
import errno
import hashlib
import json
import os
import re
import shlex
import signal
import stat
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from leeway import cli, inference, solver
from leeway.cli import load_draws_csv, main, save_draws_csv
from leeway.codebook import (Codebook, CourtReview, Drawer, FinalDrawer, PartyControl,
                             Stalemate1, Veto1, load_fixture_codebook, parse_codebook,
                             serialize_codebook)
from leeway.errors import DomainError
from leeway.inference import (COLUMN_NAMES, Diagnostics, PosteriorDraws, _rhat_ess,
                              design_row)
from leeway.nature import PriorSpec
from test_codebook import make_process
from test_fuzz import random_process


@pytest.fixture(scope="module")
def small_codebook(tmp_path_factory):
    book = load_fixture_codebook()
    keys = {("AL", 2020), ("MI", 2020), ("KS", 2020), ("WV", 2010), ("OH", 2020)}
    sub = Codebook(tuple(r for r in book if r.key in keys))
    path = tmp_path_factory.mktemp("cb") / "small.csv"
    path.write_text(serialize_codebook(sub))
    return str(path)


@pytest.fixture(scope="module")
def did_input(tmp_path_factory):
    rng = np.random.default_rng(12)
    path = tmp_path_factory.mktemp("did") / "did.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "dY0", "dY1", "d0", "d1", "dem08", "south",
                         "log_seats", "delta_seats", "log_corrupt", "initiative"])
        for i in range(87):
            d0, d1 = rng.uniform(0, 4, 2)
            cov = [rng.uniform(0.3, 0.7), float(rng.integers(2)),
                   rng.uniform(0.5, 3.5), float(rng.integers(-2, 3)),
                   rng.uniform(-1, 3), float(rng.integers(2))]
            beta = np.zeros(16)
            beta[0], beta[1], beta[3] = 0.4, 0.25, -0.6
            response = float(design_row(d1 - d0, d0, cov) @ beta + rng.normal(0, 0.05))
            writer.writerow([f"S{i:02d}", 0.0, response, d0, d1, *cov])
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCodebookCommand:
    def test_validate_clean_file(self, small_codebook, capsys):
        assert main(["codebook", "--input", small_codebook, "--validate"]) == 0

    def test_validate_bad_file_exits_1(self, tmp_path, capsys):
        book = load_fixture_codebook()
        text = serialize_codebook(book).replace(
            "AL,2020,Legislature,Republicans,Governor,Republicans",
            "AL,2020,Legislature,Republicans,NA,Republicans")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["codebook", "--input", str(bad), "--validate"]) == 1
        err = capsys.readouterr().err
        assert "control-without-body" in err
        assert err.startswith(f"{bad}, line 2: AL,2020: control-without-body: ")

    def test_normalize_roundtrip(self, small_codebook, tmp_path):
        out = tmp_path / "norm.csv"
        assert main(["codebook", "--input", small_codebook,
                     "--output", str(out)]) == 0
        body = "".join(ln for ln in out.read_text().splitlines(keepends=True)
                       if not ln.startswith("#"))
        assert body == open(small_codebook).read()

    def test_usage_error_exit_2(self):
        assert main(["codebook"]) == 2

    @pytest.mark.parametrize("flags", [["--validate", "--output", "out.csv"],
                                       ["--output", "out.csv", "--validate"]])
    def test_validate_refuses_output(self, tmp_path, capsys, monkeypatch, flags):
        # A usage error before any input is read: the input does not exist,
        # which would exit 1 once read.
        monkeypatch.chdir(tmp_path)
        assert main(["codebook", "--input", "missing.csv", *flags]) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["codebook", "--input"], ["codebook", "--validate", "--input"],
        ["leeway", "--output", "scores.csv", "--codebook"],
    ], ids=["parse", "validate", "leeway"])
    def test_empty_state_exits_1(self, small_codebook, tmp_path, capsys, monkeypatch, argv):
        # An empty state used to pass, and leeway wrote a score row without one.
        monkeypatch.chdir(tmp_path)
        lines = open(small_codebook).read().splitlines(keepends=True)
        lines[2] = "," + lines[2].split(",", 1)[1]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        assert main([*argv, str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}, line 3: state is empty\n"
        assert not (tmp_path / "scores.csv").exists()


def _python(*args, check=False) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this leeway package."""
    import leeway
    src = os.path.dirname(os.path.dirname(leeway.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=check, env=env)


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_does_not_load_scipy_stats():
    # The package ranks with numpy; scipy is an oracle of the tests only.
    out = _python("-c", f"import sys, leeway.cli; print({_SCIPY_MODULES})", check=True)
    assert out.stdout.strip() == "[]"


def test_metrics_command_does_not_load_scipy(tmp_path):
    # metrics computes the normal CDF with its own port of scipy's ndtr.
    plans = tmp_path / "plans.csv"
    plans.write_text("state,cycle,district,rep_share,turnout\n"
                     "NH,2020,1,0.52,1.0\nNH,2020,2,0.47,2.0\nTX,2020,1,0.6,1.0\n")
    ensemble = tmp_path / "ens.csv"
    ensemble.write_text("state,cycle,metric,mean,sd\n"
                        "NH,2020,expected_seats,1.1,0.3\nTX,2020,partisan_bias,0.0,0.1\n")
    argv = ["metrics", "--plans", str(plans), "--ensemble", str(ensemble),
            "--output", str(tmp_path / "m.csv")]
    code = f"import sys; from leeway.cli import main; print(main({argv!r}), {_SCIPY_MODULES})"
    out = _python("-c", code, check=True)
    assert out.stdout.strip() == "0 []"
    assert "expected_seats_sim_z" in (tmp_path / "m.csv").read_text()


def test_command_exit_codes(small_codebook, tmp_path):
    # The command exits 1 on a data error and 2 on a usage error. A bug is
    # neither: it prints the traceback and exits EXIT_BUG.
    missing = str(tmp_path / "missing.csv")
    out = _python("-m", "leeway.cli", "leeway", "--codebook", missing, "--output", missing)
    assert out.returncode == 1 and "Traceback" not in out.stderr
    assert _python("-m", "leeway.cli", "leeway").returncode == 2
    argv = ["leeway", "leeway", "--codebook", small_codebook, "--draws", "2",
            "--output", str(tmp_path / "l.csv")]
    code = ("import runpy, sys\n"
            "from leeway import solver\n"
            "def broken(*args, **kwargs):\n"
            "    raise KeyError('internal')\n"
            "solver._TreeEvaluator.solve = broken\n"
            f"sys.argv = {argv!r}\n"
            "runpy.run_module('leeway.cli', run_name='__main__')\n")
    out = _python("-c", code)
    assert out.returncode == cli.EXIT_BUG == 3
    assert "Traceback" in out.stderr and "KeyError: 'internal'" in out.stderr


_SUBCOMMANDS = ("codebook", "leeway", "paths", "metrics", "did", "counterfactual")


def test_import_builds_no_parser():
    # main builds its parser on the first call, so importing the package does
    # not pay for it. The count after build_parser shows that the spy counts.
    code = ("import argparse\n"
            "made, init = [], argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    made.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import leeway.cli\n"
            "print(len(made))\n"
            "leeway.cli.build_parser()\n"
            "print(len(made))\n")
    imported, built = _python("-c", code, check=True).stdout.split()
    assert imported == "0" and int(built) == len(_SUBCOMMANDS) + 1


class TestParserReuse:
    """main builds its argparse parser once per process and reuses it."""

    def test_built_once(self, small_codebook, tmp_path, monkeypatch):
        made, init = [], argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        for i in range(3):
            assert main(["paths", "--codebook", small_codebook, "--draws", "2",
                         "--output", str(tmp_path / f"paths{i}.csv")]) == 0
        assert main(["leeway", "--draws", "x"]) == 2
        assert len(made) == len(_SUBCOMMANDS) + 1  # the parser and its subparsers, once

    def test_command_wrapped_after_the_build_runs(self, small_codebook, monkeypatch):
        # The bench tracer wraps cli._cmd_* once the parser may already be kept.
        assert main(["codebook", "--input", small_codebook, "--validate"]) == 0
        calls, command = [], cli._cmd_codebook

        def wrapped(args):
            calls.append(args.input)
            return command(args)

        monkeypatch.setattr(cli, "_cmd_codebook", wrapped)
        assert main(["codebook", "--input", small_codebook, "--validate"]) == 0
        assert calls == [small_codebook]

    def test_usage_error_leaves_next_call_unchanged(self, small_codebook, tmp_path, capsys):
        def argv(name, *extra):
            return ["leeway", "--codebook", small_codebook, "--draws", "3", "--seed", "2",
                    *extra, "--output", str(tmp_path / f"{name}.csv"),
                    "--emit-diagnostics", str(tmp_path / f"{name}.json")]

        assert main(argv("first")) == 0
        # A bad value after options that set other fields, then an output clash,
        # which the kept parser reports after parsing.
        assert main(argv("bad", "--format", "json", "--seed", "9", "--draws", "x")) == 2
        clash = str(tmp_path / "clash.csv")
        assert main(["leeway", "--codebook", small_codebook, "--format", "json",
                     "--output", clash, "--emit-diagnostics", clash]) == 2
        capsys.readouterr()
        assert main(argv("next")) == 0
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"next{suffix}").read_bytes()
                    == (tmp_path / f"first{suffix}").read_bytes())

    @pytest.mark.parametrize("command", [None, *_SUBCOMMANDS])
    def test_help_equals_a_fresh_parser(self, command, capsys):
        argv = ["--help"] if command is None else [command, "--help"]
        assert main(["leeway"]) == 2  # the kept parser has been used before
        capsys.readouterr()
        for _ in range(2):
            assert main(argv) == 0
            kept = capsys.readouterr().out
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert kept == capsys.readouterr().out != ""


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text: str) -> list[list[str]]:
    """The argv of each ``leeway`` command in the ``sh`` blocks of README text.

    Continuation lines are joined and every bracketed ``[...]`` option is kept.
    """
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = [word.strip("[]") for word in shlex.split(line, comments=True)]
            if words[:1] == ["leeway"]:
                commands.append(words[1:])
    return commands


def unparsed(commands: list[list[str]]) -> list[str]:
    """The commands that the command's own parser refuses."""
    refused = []
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            refused.append(" ".join(argv))
    return refused


def test_readme_commands_parse():
    commands = readme_commands(README.read_text(encoding="utf-8"))
    assert {argv[0] for argv in commands} == set(_SUBCOMMANDS)
    assert unparsed(commands) == []


def test_readme_check_sees_a_misspelled_flag(capsys):
    text = README.read_text(encoding="utf-8").replace("[--grid-step 0.05]", "[--grid-stpe 0.05]")
    assert len(unparsed(readme_commands(text))) == 1
    assert "unrecognized arguments: --grid-stpe" in capsys.readouterr().err


class TestDeterminism:
    def test_leeway_byte_identical_across_runs_and_threads(self, small_codebook, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "8"), ("c", "1")):
            out = tmp_path / f"{name}.csv"
            assert main(["leeway", "--codebook", small_codebook, "--draws", "10",
                         "--seed", "7", "--threads", threads,
                         "--output", str(out)]) == 0
            outs.append(read(out))
        assert outs[0] == outs[1] == outs[2]

    def test_paths_byte_identical(self, small_codebook, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "8")):
            out = tmp_path / f"p{name}.csv"
            per_state = tmp_path / f"ps{name}.csv"
            assert main(["paths", "--codebook", small_codebook, "--draws", "8",
                         "--seed", "3", "--threads", threads, "--output", str(out),
                         "--per-state", str(per_state)]) == 0
            outs.append(read(out) + read(per_state))
        assert outs[0] == outs[1]

    def test_header_comment_present(self, small_codebook, tmp_path):
        out = tmp_path / "h.csv"
        main(["leeway", "--codebook", small_codebook, "--draws", "2",
              "--seed", "1", "--output", str(out)])
        first = out.read_text().splitlines()[0]
        assert first.startswith("# leeway v")
        assert "seed=1" in first and "config=" in first


class TestLeewayCommand:
    def test_csv_shape(self, small_codebook, tmp_path):
        out = tmp_path / "l.csv"
        main(["leeway", "--codebook", small_codebook, "--draws", "4",
              "--seed", "2", "--output", str(out)])
        rows = list(csv.DictReader(ln for ln in out.read_text().splitlines()
                                   if not ln.startswith("#")))
        assert {r["state"] for r in rows} == {"AL", "MI", "KS", "WV", "OH"}
        michigan = next(r for r in rows if r["state"] == "MI")
        assert float(michigan["maximum_leeway"]) == 0.0

    @pytest.mark.parametrize("command", ["leeway", "paths"])
    def test_absurd_draw_count_exits_1(self, command, small_codebook, tmp_path, capsys):
        assert main([command, "--codebook", small_codebook, "--draws", str(2**61),
                     "--output", str(tmp_path / "l.csv")]) == 1
        assert ("error: 2305843009213693952 prior draws (--draws): "
                "350,488,137,400,481,480,704 bytes cannot be allocated") in capsys.readouterr().err

    def test_single_district_row_skipped_by_paths(self, small_codebook, tmp_path):
        # As leeway does: the row has no game, so no path and no actual bucket.
        book = tmp_path / "book.csv"
        book.write_text(open(small_codebook).read() + "WY,2020," + "NA," * 13 + "no\n")
        outputs = []
        for codebook in (small_codebook, book):
            out, per_state = tmp_path / "x.csv", tmp_path / "p.csv"
            assert main(["paths", "--codebook", str(codebook), "--draws", "2", "--seed", "3",
                         "--output", str(out), "--per-state", str(per_state)]) == 0
            outputs.append(_body(out) + _body(per_state))
        assert outputs[0] == outputs[1]

    def test_final_drawer_missing_rejected_before_sampling(self, small_codebook, tmp_path,
                                                           capsys, monkeypatch):
        # A row with a game but no final drawer has no actual bucket in the path table.
        book = tmp_path / "book.csv"
        book.write_text(open(small_codebook).read() + "ZZ,2020,Legislature,Republicans,Governor,"
                        "Republicans,NA,NA,No,Republicans,Unclear,NA,NA,NA,NA,no\n")
        monkeypatch.setattr(solver, "sample_draws", lambda *args: pytest.fail("sampled"))
        out = tmp_path / "p.csv"
        assert main(["paths", "--codebook", str(book), "--draws", "2", "--output", str(out)]) == 1
        message = "drawer present but final_drawer is NA"
        assert capsys.readouterr().err == (f"error: {book}, line 7: [final-drawer-missing] "
                                           f"{message}\n")
        assert not out.exists()
        assert main(["codebook", "--input", str(book), "--validate"]) == 1
        assert capsys.readouterr().err == (f"{book}, line 7: ZZ,2020: final-drawer-missing: "
                                           f"{message}\n")

    def test_json_format(self, small_codebook, tmp_path):
        out = tmp_path / "l.json"
        main(["leeway", "--codebook", small_codebook, "--draws", "2",
              "--seed", "2", "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["meta"]["seed"] == 2
        assert len(payload["rows"]) == 5

    def test_emit_diagnostics(self, small_codebook, tmp_path):
        out = tmp_path / "l.csv"
        diag = tmp_path / "d.json"
        main(["leeway", "--codebook", small_codebook, "--draws", "2", "--seed", "2",
              "--output", str(out), "--emit-diagnostics", str(diag)])
        payload = json.loads(diag.read_text())
        assert len(payload["draws"]) == 10  # 5 states x 2 draws
        record = payload["draws"][0]
        assert {"state", "cycle", "draw", "value", "path_probs",
                "round2_proposal", "veto_thresholds"} <= set(record)

    def test_diagnostics_reuse_the_realized_solve(self, small_codebook, tmp_path,
                                                  monkeypatch):
        # One solve per distinct tree of the realized and all-Democratic
        # party control, each in exactly one of the batch's passes: the
        # diagnostics are written from the realized solve the scores already
        # made, and each realized tree's fields are formatted once, however
        # many rows share it. AL_T is a twin of AL.
        rows = list(parse_codebook(Path(small_codebook)))
        al = next(row for row in rows if row.state_id == "AL")
        book = tmp_path / "twin.csv"
        book.write_text(serialize_codebook(Codebook((*rows, replace(al, state_id="AL_T")))))
        batches, formatted = [], []
        real_init, real_fields = solver.BatchContext.__init__, cli._diagnostic_fields

        def recording(batch, *args):
            real_init(batch, *args)
            batches.append(batch)

        def formatting(tree):
            formatted.append(tree.key)
            return real_fields(tree)

        monkeypatch.setattr(solver.BatchContext, "__init__", recording)
        monkeypatch.setattr(cli, "_diagnostic_fields", formatting)
        assert main(["leeway", "--codebook", str(book), "--draws", "2", "--seed", "2",
                     "--output", str(tmp_path / "l.csv"),
                     "--emit-diagnostics", str(tmp_path / "d.json")]) == 0
        solvable = [r for r in parse_codebook(book) if r.drawer is not Drawer.NA]
        trees = {solver.TreeKey.of(process) for row in solvable for process in (
            row, solver.uniform_control(row, PartyControl.DEMOCRATS))}
        [batch] = batches
        calls = [key for members in batch.passes for key in members]
        assert len(calls) == len(trees) and set(calls) == trees
        realized = {solver.TreeKey.of(row) for row in solvable}
        assert len(formatted) == len(realized) < len(solvable)
        assert set(formatted) == realized
        assert len(json.loads((tmp_path / "d.json").read_text())["draws"]) == 2 * len(solvable)

    def test_diagnostics_make_no_result_call(self, small_codebook, tmp_path, monkeypatch):
        # The records come from the solved arrays, not from one result() per draw.
        def result(self, d):
            raise AssertionError("result() called")

        monkeypatch.setattr(solver.SolvedTree, "result", result)
        assert main(["leeway", "--codebook", small_codebook, "--draws", "3", "--seed", "2",
                     "--output", str(tmp_path / "l.csv"),
                     "--emit-diagnostics", str(tmp_path / "d.json")]) == 0
        assert len(json.loads((tmp_path / "d.json").read_text())["draws"]) == 15


def oracle_diagnostics(codebook: Codebook, argv: list) -> str:
    """The diagnostics file as json.dumps writes it from result(d) of every (row, draw)."""
    args = cli.build_parser().parse_args(argv)
    thetas = solver.sample_draws(PriorSpec.default(), args.seed, args.draws)
    records = [{"state": row.state_id, "cycle": row.cycle, "draw": d,
                **asdict(solver.BatchContext(thetas).solve(row).result(d))}
               for row in codebook if row.drawer is not Drawer.NA for d in range(args.draws)]
    return json.dumps({"draws": records, "meta": cli._meta(args, args.seed)},
                      sort_keys=True, allow_nan=False) + "\n"


def fuzz_rows() -> list:
    """The random valid processes of the fuzz tests, each with its party mirror."""
    rng = np.random.default_rng(777)
    rows = [random_process(rng, i) for i in range(120)]
    return [*rows, *(replace(row.mirrored(), state_id=f"M{row.state_id}") for row in rows)]


# A Democratic drawer facing a Republican governor, with a court breaking
# stalemates, stalemates in round 2.
_ROUND2_STALEMATE = make_process(
    state_id="RS", drawer_control=PartyControl.DEMOCRATS, veto1=Veto1.GOVERNOR,
    veto1_control=PartyControl.REPUBLICANS, stalemate1=Stalemate1.COURT,
    court_review=CourtReview.YES, court_control=PartyControl.DEMOCRATS)
_SINGLE_DISTRICT = make_process(
    state_id="WY", drawer=Drawer.NA, drawer_control=PartyControl.NA,
    court_review=CourtReview.NA, court_control=PartyControl.NA,
    stalemate1=Stalemate1.NA, final_drawer=FinalDrawer.NA)


class TestDiagnosticsOracle:
    @pytest.mark.parametrize("rows, draws, marker", [
        (fuzz_rows(), 3, '"stalemate"'),
        ([_ROUND2_STALEMATE, replace(_ROUND2_STALEMATE.mirrored(), state_id="RS_M")], 10,
         '"stalemate"'),
        ([replace(_ROUND2_STALEMATE, state_id=state) for state in
          ('A"B', "C\\D", "\u00e9t\u00e9", "X\u2028Y")], 2, "\\u2028"),
        ([_SINGLE_DISTRICT], 4, '{"draws": [], '),
    ], ids=["fuzz-with-mirrors", "round2-stalemate", "escaped-states", "no-solvable-row"])
    def test_file_equals_json_dumps_of_results(self, rows, draws, marker, tmp_path):
        book = tmp_path / "book.csv"
        book.write_text(serialize_codebook(Codebook(tuple(rows))), encoding="utf-8")
        diag = tmp_path / "d.json"
        argv = ["leeway", "--codebook", str(book), "--draws", str(draws), "--seed", "23",
                "--output", str(tmp_path / "l.csv"), "--emit-diagnostics", str(diag)]
        assert main(argv) == 0
        text = diag.read_bytes().decode("utf-8")
        want = oracle_diagnostics(parse_codebook(book), argv)
        if text != want:  # pytest's own diff of two long strings would take minutes
            at = next((i for i, pair in enumerate(zip(text, want)) if pair[0] != pair[1]),
                      min(len(text), len(want)))
            pytest.fail(f"at {at}: {text[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")
        assert marker in text

    @pytest.mark.parametrize("field", ["values", "path_probs"])
    def test_non_finite_field_raises_and_writes_nothing(self, field, small_codebook,
                                                        tmp_path, monkeypatch):
        real = solver._TreeEvaluator.solve

        def poisoned(tree):
            real(tree)
            array = getattr(tree, field).copy()
            array[-1] = np.nan
            setattr(tree, field, array)
            return tree

        monkeypatch.setattr(solver._TreeEvaluator, "solve", poisoned)
        diag = tmp_path / "d.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(["leeway", "--codebook", small_codebook, "--draws", "2",
                  "--output", str(tmp_path / "l.csv"), "--emit-diagnostics", str(diag)])
        assert not diag.exists()


# SHA-256 of `leeway --emit-diagnostics` JSON and `paths --per-state` CSV on the
# fixture at 6 draws, seed 7, and of a `counterfactual --doses-csv` CSV on the
# small codebook and fitted model at 6 draws, seed 7, with the `--output` JSON
# and `--line-samples` CSV of that same call, without the config hash and the
# header comments, which name the input paths. The fixture reaches both
# ways of recording veto thresholds: partisan drawers (AL, WI) and split or
# nonpartisan drawers with a partisan veto (IA, MN-2020, NY, OH-2020, VA-2010).
# The doses digest also covers the posterior draws of the `did` fit it reads.
_GOLDEN_DIAGNOSTICS = "29b924517bef4eaa9c0ef37c547d16792d0af715e7cff3144adc545e72a00625"
_GOLDEN_PER_STATE = "f0291cd01ab3c2b0115d05041ea43228e69ad55a968ee51538e44efc538d3d1f"
_GOLDEN_DOSES = "02666d06be2a7c1621fe8f931b5ad69d89a852813932fd468c20a9ae02ee9f83"
_GOLDEN_COUNTERFACTUAL = "9ae6131142ff588b2510da5669ebc4787ce61e550ab64768deebf8ac8de9dc38"
_GOLDEN_LINE_SAMPLES = "8432ba34ddc913110273d77705d02411259ffdfc556cb31d9d96c6ed6e14cf26"


def _body(path) -> bytes:
    """A CSV output without its header comment."""
    return b"".join(ln for ln in read(path).splitlines(keepends=True)
                    if not ln.startswith(b"#"))


def test_solver_outputs_match_golden_digests(tmp_path, small_codebook, fitted_model, inputs):
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(serialize_codebook(load_fixture_codebook()))
    diag, per_state = tmp_path / "d.json", tmp_path / "p.csv"
    common = ["--codebook", str(fixture), "--draws", "6", "--seed", "7"]
    assert main(["leeway", *common, "--output", str(tmp_path / "l.csv"),
                 "--emit-diagnostics", str(diag)]) == 0
    assert main(["paths", *common, "--output", str(tmp_path / "x.csv"),
                 "--per-state", str(per_state)]) == 0
    body = re.sub(rb'"config": "[0-9a-f]*"', b'"config": ""', read(diag))
    assert hashlib.sha256(body).hexdigest() == _GOLDEN_DIAGNOSTICS
    assert hashlib.sha256(_body(per_state)).hexdigest() == _GOLDEN_PER_STATE
    cov, base = inputs
    doses, cf_json, line = tmp_path / "doses.csv", tmp_path / "cf.json", tmp_path / "line.csv"
    assert main(["counterfactual", "--template", "ny", "--codebook", small_codebook,
                 "--seat-model", fitted_model, "--resp-model", fitted_model,
                 "--covariates", cov, "--baseline", base, "--draws", "6", "--seed", "7",
                 "--output", str(cf_json), "--doses-csv", str(doses),
                 "--line-samples", str(line)]) == 0
    assert hashlib.sha256(_body(doses)).hexdigest() == _GOLDEN_DOSES
    body = re.sub(rb'"config": "[0-9a-f]*"', b'"config": ""', read(cf_json))
    assert hashlib.sha256(body).hexdigest() == _GOLDEN_COUNTERFACTUAL
    assert hashlib.sha256(_body(line)).hexdigest() == _GOLDEN_LINE_SAMPLES


class TestMetricsCommand:
    def test_values_and_adjustment(self, tmp_path):
        plans = tmp_path / "plans.csv"
        plans.write_text(
            "state,cycle,district,rep_share\n"
            "NH,2020,1,0.5\nNH,2020,2,0.5\n"
            "TX,2020,1,0.6\n")
        ensemble = tmp_path / "ens.csv"
        ensemble.write_text("state,cycle,metric,mean,sd\n"
                            "TX,2020,competitive_share,0.2,0.1\n")
        out = tmp_path / "m.csv"
        assert main(["metrics", "--plans", str(plans), "--ensemble", str(ensemble),
                     "--output", str(out)]) == 0
        rows = {(r["state"], r["metric"]): float(r["value"])
                for r in csv.DictReader(ln for ln in out.read_text().splitlines()
                                        if not ln.startswith("#"))}
        assert rows[("NH", "responsiveness")] == pytest.approx(7.91, abs=0.01)
        assert rows[("TX", "competitive_share")] == pytest.approx(0.14, abs=0.01)
        assert rows[("TX", "competitive_share_sim_z")] == pytest.approx(
            (rows[("TX", "competitive_share")] - 0.2) / 0.1)

    def test_turnout_column(self, tmp_path):
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share,turnout\n"
                         "AA,2010,1,0.75,2.0\nAA,2010,2,0.45,1.0\n")
        out = tmp_path / "m.csv"
        assert main(["metrics", "--plans", str(plans), "--output", str(out)]) == 0

    def test_partial_turnout_exits_1(self, tmp_path, capsys):
        # A plan weighted in some districts only cannot be scored either way.
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share,turnout\n"
                         "BB,2010,1,0.6,\nBB,2010,2,0.4,\n"
                         "AA,2010,1,0.75,2.0\nAA,2010,2,0.45,\nAA,2010,3,0.55,\n")
        out = tmp_path / "m.csv"
        assert main(["metrics", "--plans", str(plans), "--output", str(out)]) == 1
        assert f"{plans}, line 5: turnout is blank" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_turnout_column_is_unweighted(self, tmp_path):
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text("state,cycle,district,rep_share\nBB,2010,1,0.6\nBB,2010,2,0.45\n")
        blank.write_text("state,cycle,district,rep_share,turnout\n"
                         "BB,2010,1,0.6,\nBB,2010,2,0.45,\n")
        for plans in (plain, blank):
            assert main(["metrics", "--plans", str(plans),
                         "--output", str(tmp_path / f"{plans.stem}.out")]) == 0
        assert _body(tmp_path / "plain.out") == _body(tmp_path / "blank.out")

    @pytest.mark.parametrize("flag", ["--sigma-national", "--sigma-district"])
    def test_lone_sigma_flag_exits_1(self, tmp_path, capsys, flag):
        # The other scale stays at its default of 0, which the swing model rejects.
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share\nNH,2020,1,0.5\n")
        out = tmp_path / "m.csv"
        assert main(["metrics", "--plans", str(plans), flag, "0.5",
                     "--output", str(out)]) == 1
        assert "=0.0" in capsys.readouterr().err
        assert not out.exists()


class TestDidCommand:
    def did(self, did_input, tmp_path, *flags) -> int:
        """``did`` on ``did_input`` with ``flags``, writing x.csv and x.json in tmp_path."""
        return main(["did", "--input", did_input, *flags, "--output-draws",
                     str(tmp_path / "x.csv"), "--output-diagnostics", str(tmp_path / "x.json")])

    def test_fit_and_outputs(self, fitted_model):
        # fitted_model is `did --seed 5` at its defaults.
        with open(os.path.join(os.path.dirname(fitted_model), "diag.json")) as fh:
            payload = json.load(fh)
        assert max(payload["rhat"].values()) < 1.05
        assert min(payload["ess"].values()) > 400
        assert payload["acr"]["mean"] == pytest.approx(0.25, abs=0.05)

    def test_underpowered_run_fails_cleanly(self, did_input, tmp_path, capsys):
        assert self.did(did_input, tmp_path, "--seed", "5", "--draws", "200", "--chains", "2") == 1
        assert "converge" in capsys.readouterr().err
        # The diagnostics of the failed fit are still written; no draws are.
        diagnostics = json.loads(read(tmp_path / "x.json"))
        assert min(diagnostics["ess"].values()) <= 400
        assert diagnostics["acr"] is None
        assert not (tmp_path / "x.csv").exists()

    def test_too_few_draws_exits_1(self, did_input, tmp_path, capsys):
        assert self.did(did_input, tmp_path, "--seed", "5", "--draws", "1") == 1
        assert "split R-hat needs at least 4" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--draws", str(2**61)],
         "4 chains (--chains) of 2305843009213693952 draws (--draws): "
         "1,180,591,620,717,411,303,424 bytes"),
        (["--chains", str(2**40), "--draws", str(2**30)],
         "1099511627776 chains (--chains) of 1073741824 draws (--draws): "
         "151,115,727,451,828,646,838,272 bytes"),
    ], ids=["draws", "chains"])
    def test_absurd_draw_count_exits_1(self, did_input, tmp_path, capsys, flags, message):
        # Above 2**63 bytes numpy refuses the array before it touches memory,
        # and no chain's generator is made before the arrays exist.
        assert self.did(did_input, tmp_path, *flags) == 1
        assert f"error: {message} cannot be allocated" in capsys.readouterr().err

    @pytest.mark.parametrize("value, bad", [("nan", "sigma_y=nan"),
                                            ("1e308", "intercept sd=inf"),
                                            ("1e100", "sigma_y=1e+100"),
                                            ("1e150", "sigma_y=1e+150"),
                                            ("1e200", "sigma_y=1e+200"),
                                            ("1e300", "sigma_y=1e+300"),
                                            ("1e-320", "residual_rate=inf")])
    def test_non_finite_prior_scale_exits_1(self, did_input, tmp_path, capsys, value, bad):
        # 2.5 x 1e308, the intercept's prior sd, overflows to inf. From 1e100 on,
        # sigma_y is finite but overflows the posterior draws or S X'X S. The
        # residual rate 1 / sigma_y of a subnormal sigma_y overflows to inf.
        assert self.did(did_input, tmp_path, "--sigma-y", value) == 1
        assert f"prior scale {bad} must be finite and positive" in capsys.readouterr().err


def fit(did_input, tmp_path_factory, *flags) -> str:
    """The draw file of `did --seed 5` with ``flags``; its diagnostics sit beside it."""
    root = tmp_path_factory.mktemp("model")
    assert main(["did", "--input", did_input, "--seed", "5", *flags,
                 "--output-draws", str(root / "draws.csv"),
                 "--output-diagnostics", str(root / "diag.json")]) == 0
    return str(root / "draws.csv")


@pytest.fixture(scope="module")
def fitted_model(did_input, tmp_path_factory):
    """The default 4 x 10,000 fit, for tests of its exact bytes."""
    return fit(did_input, tmp_path_factory)


@pytest.fixture(scope="module")
def small_model(did_input, tmp_path_factory):
    """The same fit at 4 x 1,000 draws, which pass the convergence gate."""
    return fit(did_input, tmp_path_factory, "--draws", "1000")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cf")
    cov = root / "cov.csv"
    cov.write_text(
        "state,dem08,south,log_seats,delta_seats,log_corrupt,initiative,n_districts\n"
        "AL,0.39,1,1.95,0,1.2,0,7\n"
        "KS,0.42,0,1.39,0,0.5,0,4\n"
        "MI,0.57,0,2.56,-1,1.5,1,13\n"
        "OH,0.52,0,2.71,-1,1.8,1,15\n")
    base = root / "base.json"
    base.write_text('{"dem_seats": 213.5, "slope_seats_per_pp": 7.8}\n')
    return str(cov), str(base)


def counterfactual_argv(book, model, inputs, output, *flags) -> list:
    """``counterfactual --template mi`` at 2 draws, seed 3, with ``model`` as both
    draw files; a flag repeated in ``flags`` overrides its value here."""
    cov, base = inputs
    return ["counterfactual", "--template", "mi", "--codebook", book, "--seat-model", model,
            "--resp-model", model, "--covariates", cov, "--baseline", base,
            "--draws", "2", "--seed", "3", "--output", str(output), *flags]


class TestCounterfactualCommand:
    def test_identity_is_exact_zero(self, small_codebook, small_model, inputs, tmp_path):
        out = tmp_path / "cf.json"
        assert main(counterfactual_argv(small_codebook, small_model, inputs, out,
                                        "--template", "identity", "--draws", "5")) == 0
        payload = json.loads(out.read_text())
        assert payload["total_dem_seat_change"]["mean"] == 0.0
        assert payload["seats_votes_line"]["intercept_seats"] == 213.5
        # per-draw slope change is exactly zero; the mean over draws picks
        # up at most summation rounding
        assert payload["seats_votes_line"]["slope_seats_per_pp"] == pytest.approx(
            7.8, abs=1e-12)

    def test_mi_run_with_all_outputs(self, small_codebook, small_model, inputs, tmp_path):
        out, doses, lines = tmp_path / "cf.json", tmp_path / "doses.csv", tmp_path / "lines.csv"
        assert main(counterfactual_argv(small_codebook, small_model, inputs, out,
                                        "--draws", "5", "--doses-csv", str(doses),
                                        "--line-samples", str(lines))) == 0
        dose_rows = list(csv.DictReader(ln for ln in doses.read_text().splitlines()
                                        if not ln.startswith("#")))
        by_state = {r["state"]: r for r in dose_rows}
        assert set(by_state) == {"AL", "KS", "MI", "OH"}  # 2020 rows only
        assert float(by_state["KS"]["d_reformed"]) == 0.0
        payload = json.loads(out.read_text())
        assert payload["total_dem_seat_change"]["mean"] > 0.0
        line_rows = [ln for ln in lines.read_text().splitlines()
                     if not ln.startswith("#")]
        assert len(line_rows) - 1 == 4000  # one per posterior draw

    @pytest.mark.parametrize("n,huge", [(10, None), (1000, 1e308)], ids=["short", "huge"])
    def test_unconverged_draws_exit_1(self, small_codebook, small_model, inputs, tmp_path,
                                      capsys, n, huge):
        # 4 chains of 10 draws cannot reach an ESS of 400. A finite draw near
        # 1e308 overflows its column's R-hat to NaN, which fails the gate too.
        draws = random_draws(4, n, decades=1)
        if huge is not None:
            draws.coefficients[1, 7, 0] = huge
        seat = tmp_path / "seat.csv"
        save_draws_csv(draws, str(seat), "# header\n")
        assert main(counterfactual_argv(small_codebook, small_model, inputs,
                                        tmp_path / "o.json", "--seat-model", str(seat))) == 1
        assert capsys.readouterr().err == (f"error: {seat}: seat model draws fail "
                                           "convergence thresholds\n")
        assert not (tmp_path / "o.json").exists()

    def test_missing_covariates_exit_1(self, small_codebook, small_model, inputs,
                                       tmp_path, capsys):
        cov = tmp_path / "cov.csv"
        cov.write_text(
            "state,dem08,south,log_seats,delta_seats,log_corrupt,initiative,n_districts\n"
            "AL,0.39,1,1.95,0,1.2,0,7\n")
        assert main(counterfactual_argv(small_codebook, small_model, inputs,
                                        tmp_path / "o.json", "--covariates", str(cov))) == 1
        assert f"error: {cov}: missing covariates for: " in capsys.readouterr().err

    def test_draw_counts_differ_exit_1(self, small_codebook, inputs, tmp_path, capsys):
        seat, resp = tmp_path / "seat.csv", tmp_path / "resp.csv"
        save_draws_csv(random_draws(4, 200, decades=1), str(seat))
        save_draws_csv(random_draws(4, 400, seed=1, decades=1), str(resp))
        assert main(counterfactual_argv(small_codebook, str(seat), inputs, tmp_path / "o.json",
                                        "--resp-model", str(resp))) == 1
        assert capsys.readouterr().err == (
            f"error: {seat} holds 800 draws and {resp} 1600; they must match\n")

    def test_no_dose_exit_1(self, small_model, inputs, tmp_path, capsys):
        book = tmp_path / "book.csv"
        book.write_text(serialize_codebook(Codebook(tuple(
            row for row in load_fixture_codebook() if row.cycle == 2010))))
        assert main(counterfactual_argv(str(book), small_model, inputs,
                                        tmp_path / "o.json")) == 1
        assert capsys.readouterr().err == (f"error: {book}: no 2020 row has a redistricting "
                                           "game\n")

    @pytest.mark.parametrize("bad", ["covariates", "baseline"])
    def test_small_inputs_read_before_any_solve(self, small_codebook, small_model, inputs,
                                                tmp_path, capsys, monkeypatch, bad):
        # A typo in a small input costs neither the doses' solves nor a draw file's read.
        monkeypatch.setattr(cli.cf, "counterfactual_doses", lambda *a, **k: pytest.fail("solved"))
        monkeypatch.setattr(cli, "load_draws_csv", lambda path: pytest.fail("read draws"))
        path = tmp_path / bad
        path.write_text("state\nAL\n" if bad == "covariates" else "{")
        assert main(counterfactual_argv(small_codebook, small_model, inputs,
                                        tmp_path / "o.json", f"--{bad}", str(path))) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["leeway", "paths", "counterfactual"])
def test_grid_step_reported_before_draw_count(command, small_codebook, small_model, inputs,
                                              tmp_path, capsys):
    # The run's batch builds its grid before it samples the draws.
    out, flags = tmp_path / "o.json", ["--grid-step", "0", "--draws", "0"]
    argv = (counterfactual_argv(small_codebook, small_model, inputs, out, *flags)
            if command == "counterfactual"
            else [command, "--codebook", small_codebook, "--output", str(out), *flags])
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: grid step 0.0 out of range\n"
    assert not out.exists()


def random_draws(chains, n, seed=0, decades=5):
    """Draws with full-precision floats spread over +-``decades`` powers of ten."""
    rng = np.random.default_rng(seed)
    coefficients = rng.normal(size=(chains, n, len(COLUMN_NAMES)))
    coefficients *= 10.0 ** rng.integers(-decades, decades, size=coefficients.shape)
    coefficients[0, 0, :3] = (-0.0, 5e-324, 0.1)
    sigma = rng.gamma(2.0, size=(chains, n))
    return PosteriorDraws(coefficients=coefficients, sigma=sigma,
                          diagnostics=Diagnostics({}, {}))


def reference_draw_file(draws, header):
    """The draw file format, written one cell at a time."""
    lines = [header, ",".join(["chain", "draw", *COLUMN_NAMES, "sigma"]) + "\n"]
    chains, n, _ = draws.coefficients.shape
    for c in range(chains):
        for t in range(n):
            cells = [str(c), str(t), *(repr(float(v)) for v in draws.coefficients[c, t]),
                     repr(float(draws.sigma[c, t]))]
            lines.append(",".join(cells) + "\n")
    return "".join(lines).encode()


def draw_file_lines(path):
    text = path.read_text()
    body = [ln for ln in text.splitlines(keepends=True) if not ln.startswith("#")]
    return body[0], body[1:]


class TestDrawFiles:
    def test_round_trip_is_bitwise(self, tmp_path):
        draws = random_draws(3, 40)
        path = tmp_path / "d.csv"
        save_draws_csv(draws, str(path), "# header\n")
        loaded = load_draws_csv(str(path))
        assert loaded.coefficients.tobytes() == draws.coefficients.tobytes()
        assert loaded.sigma.tobytes() == draws.sigma.tobytes()
        for j, name in enumerate(COLUMN_NAMES):
            rhat, ess = _rhat_ess(draws.coefficients[:, :, j])
            assert (loaded.diagnostics.rhat[name], loaded.diagnostics.ess[name]) == (rhat, ess)
        assert (loaded.diagnostics.rhat["sigma"],
                loaded.diagnostics.ess["sigma"]) == _rhat_ess(draws.sigma)

    def test_interleaved_chains_load_like_sorted(self, tmp_path):
        draws = random_draws(3, 30, seed=2)
        path = tmp_path / "d.csv"
        save_draws_csv(draws, str(path), "# header\n")
        header, rows = draw_file_lines(path)
        # round-robin over chains, highest chain first, keeping each chain's order
        by_chain = [rows[c * 30:(c + 1) * 30] for c in (2, 1, 0)]
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("# header\n" + header + "".join(
            line for t in range(30) for line in (chain[t] for chain in by_chain)))
        a, b = load_draws_csv(str(path)), load_draws_csv(str(mixed))
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert a.sigma.tobytes() == b.sigma.tobytes()
        assert a.diagnostics == b.diagnostics

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_endings_and_comment_lines_load_bitwise(self, tmp_path, newline):
        # The rows are parsed after skipping the leading comment lines and
        # the header, so the count of skipped lines must hold for every line
        # ending, a byte-order mark or a quote in a comment; blank lines
        # among the rows are skipped.
        path = tmp_path / "d.csv"
        save_draws_csv(random_draws(2, 12, seed=4), str(path), "# header\n")
        header, rows = draw_file_lines(path)
        lines = ["\ufeff# one\n", "#\n", '# three, with, "commas\n', "\n", header,
                 *rows[:5], "\n", *rows[5:17], "\n", "\n", *rows[17:]]
        edited = tmp_path / "edited.csv"
        edited.write_bytes("".join(lines).replace("\n", newline).encode())
        a, b = load_draws_csv(str(path)), load_draws_csv(str(edited))
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert a.sigma.tobytes() == b.sigma.tobytes()
        assert a.diagnostics == b.diagnostics

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "d.csv"
        save_draws_csv(random_draws(2, 6, seed=3), str(path), "# header\n")
        return path

    def rewrite(self, path, edit):
        header, rows = draw_file_lines(path)
        path.write_text("# header\n" + header + "".join(edit(rows)))

    def assert_rejected(self, path, message):
        with pytest.raises(DomainError, match=message) as err:
            load_draws_csv(str(path))
        assert str(path) in str(err.value)

    def test_unequal_chains_rejected(self, saved):
        self.rewrite(saved, lambda rows: rows[:-1])
        self.assert_rejected(saved, r"unequal lengths \(chain 0: 6, chain 1: 5 draws\)")

    def test_header_without_rows_rejected(self, saved):
        self.rewrite(saved, lambda rows: [])
        self.assert_rejected(saved, "no draw rows")

    def test_too_few_draws_per_chain_rejected(self, saved):
        # split R-hat halves each chain, and a half needs two draws
        self.rewrite(saved, lambda rows: rows[:3] + rows[6:9])
        self.assert_rejected(saved, "3 draws per chain")

    @pytest.mark.parametrize("chain", ["0.5", "-1", "nan"])
    def test_bad_chain_id_rejected(self, saved, chain):
        self.rewrite(saved, lambda rows: [chain + rows[0][1:], *rows[1:]])
        self.assert_rejected(saved, "is not a non-negative integer")

    def test_short_row_rejected(self, saved):
        self.rewrite(saved, lambda rows: [*rows[:3], rows[3].rsplit(",", 1)[0] + "\n",
                                          *rows[4:]])
        self.assert_rejected(saved, "line 6: sigma='' is not a valid float")

    def test_every_row_short_rejected(self, saved):
        self.rewrite(saved, lambda rows: [r.rsplit(",", 1)[0] + "\n" for r in rows])
        self.assert_rejected(saved, "line 3: sigma='' is not a valid float")

    def test_unparseable_cell_rejected(self, saved):
        self.rewrite(saved, lambda rows: [*rows[:4], "0,x," + rows[4].split(",", 2)[2],
                                          *rows[5:]])
        self.assert_rejected(saved, "line 7: draw='x' is not a valid float")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, saved, cell):
        self.rewrite(saved, lambda rows: [*rows[:4], rows[4].rsplit(",", 1)[0] + f",{cell}\n",
                                          *rows[5:]])
        self.assert_rejected(saved, f"line 7: sigma='{cell}' is not finite")

    @pytest.mark.parametrize("row,message", [
        ("# a comment line", "line 5: chain='# a comment line' is not a valid float"),
        ('"0"x,1', "line 5: ',' expected after '\"'"),
        ("x" * 140_000, r"line 5: field larger than field limit \(131072\)"),
        ("0,\udce9", "line 5: 'utf-8' codec can't decode byte 0xe9 in position 2"),
        ("0,1_0", "line 5: draw='1_0' is not a valid float"),
        ("0,\u0661", "line 5: draw='\u0661' is not a valid float"),
    ], ids=["comment", "bad-quote", "huge-cell", "latin1", "underscore", "arabic-digit"])
    def test_malformed_row_rejected_naming_its_line(self, saved, row, message):
        # A row is any line after the header, and read as every table input's is.
        header, rows = draw_file_lines(saved)
        saved.write_bytes("".join(["# header\n", header, *rows[:2], row + "\n", *rows[2:]])
                          .encode("utf-8", "surrogateescape"))
        self.assert_rejected(saved, message)

    def test_wrong_header_rejected(self, saved):
        saved.write_text(saved.read_text().replace(",sigma\n", ",scale\n"))
        self.assert_rejected(saved, "column layout")

    def test_bad_draw_file_exits_1(self, small_codebook, inputs, saved, tmp_path, capsys):
        self.rewrite(saved, lambda rows: rows[:-1])
        assert main(counterfactual_argv(small_codebook, str(saved), inputs,
                                        tmp_path / "o.json")) == 1
        assert "unequal lengths" in capsys.readouterr().err


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["fork", "inline", "fork-fails", "threaded"])
def fork_mode(request, monkeypatch):
    """Run draw-file text in a forked child, or inline: where os.fork is
    missing, where it fails, or where a second thread is running."""
    if request.param == "inline":
        monkeypatch.delattr(os, "fork")
    elif request.param == "fork-fails":
        def fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
    elif request.param == "threaded":
        def fork():
            raise AssertionError("os.fork called while a second thread runs")

        monkeypatch.setattr(os, "fork", fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        request.addfinalizer(thread.join)
        request.addfinalizer(stop.set)  # finalizers run last-in, first-out
    return request.param


@pytest.fixture(scope="module")
def forked_counterfactual(small_codebook, small_model, inputs, tmp_path_factory):
    """The JSON of a counterfactual run whose draw files are read through the fork."""
    out = tmp_path_factory.mktemp("forked") / "o.json"
    assert main(counterfactual_argv(small_codebook, small_model, inputs, out)) == 0
    return read(out)


class TestForkedCodec:
    """The child process that parses or formats half of the draw-file text."""

    @pytest.mark.parametrize("chains,n", [(1, 4), (3, 5), (2, 2003), (4, 1)])
    def test_writer_bytes_match_reference(self, tmp_path, fork_mode, chains, n):
        draws = random_draws(chains, n, seed=chains, decades=300)
        path = tmp_path / "d.csv"
        header = "# leeway v0 seed=1 config=abc\n"
        save_draws_csv(draws, str(path), header)
        assert read(path) == reference_draw_file(draws, header)
        assert_no_children()

    def test_writer_error_reaps_child(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            save_draws_csv(random_draws(2, 10), str(tmp_path))
        assert_no_children()

    def test_failed_fork_closes_the_pipe(self, tmp_path, monkeypatch):
        # The text is then formatted inline, with the same bytes.
        def fork():
            raise BlockingIOError("no process slots")

        monkeypatch.setattr(os, "fork", fork)
        draws, path = random_draws(2, 10), tmp_path / "d.csv"
        before = sorted(os.listdir("/proc/self/fd"))
        save_draws_csv(draws, str(path))
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert read(path) == reference_draw_file(draws, "")

    def test_did_bytes_on_every_path(self, did_input, small_model, tmp_path, fork_mode):
        # small_model is the same fit, written through the fork.
        draws = tmp_path / "d.csv"
        assert main(["did", "--input", did_input, "--seed", "5", "--draws", "1000",
                     "--output-draws", str(draws),
                     "--output-diagnostics", str(tmp_path / "d.json")]) == 0
        assert read(draws) == read(small_model)
        assert_no_children()
        design = inference.build_design(cli.read_did_rows(did_input))
        fit = inference.fit_posterior(design, inference.PriorConfig.from_design(design),
                                      n_draws=1000, n_chains=4, seed=5)
        header = read(draws).decode().split("\n", 1)[0] + "\n"
        assert read(draws) == reference_draw_file(fit, header)

    def test_counterfactual_bytes_on_every_path(self, small_codebook, small_model, inputs,
                                                forked_counterfactual, tmp_path, fork_mode):
        assert self.counterfactual(small_codebook, inputs, tmp_path,
                                   small_model, small_model) == 0
        assert read(tmp_path / "o.json") == forked_counterfactual
        assert_no_children()

    @pytest.fixture
    def resp_model(self, tmp_path):
        path = tmp_path / "resp.csv"
        save_draws_csv(random_draws(4, 1000, seed=6, decades=1), str(path), "# header\n")
        return str(path)

    @pytest.fixture
    def seat_model(self, tmp_path):
        path = tmp_path / "seat.csv"
        save_draws_csv(random_draws(4, 1000, seed=5, decades=1), str(path), "# header\n")
        return str(path)

    def counterfactual(self, small_codebook, inputs, tmp_path, seat, resp):
        return main(counterfactual_argv(small_codebook, seat, inputs, tmp_path / "o.json",
                                        "--resp-model", resp))

    def test_loaded_pair_equals_sequential_loads(self, small_codebook, seat_model, inputs,
                                                 resp_model, tmp_path, monkeypatch):
        seen = []
        original = cli.cf.predict_national

        def spy(pairs, seat_model, resp_model, *rest):
            seen.extend([seat_model, resp_model])
            return original(pairs, seat_model, resp_model, *rest)

        monkeypatch.setattr(cli.cf, "predict_national", spy)
        assert self.counterfactual(small_codebook, inputs, tmp_path,
                                   seat_model, resp_model) == 0
        assert_no_children()
        assert len(seen) == 2
        for got, path in zip(seen, (seat_model, resp_model)):
            want = load_draws_csv(path)
            assert got.coefficients.shape == want.coefficients.shape
            assert got.coefficients.tobytes() == want.coefficients.tobytes()
            assert got.sigma.tobytes() == want.sigma.tobytes()
            assert got.diagnostics == want.diagnostics

    @pytest.fixture
    def nan_model(self, tmp_path):
        draws = random_draws(4, 1000, seed=4, decades=1)
        draws.coefficients[1, 7, 0] = float("nan")
        path = tmp_path / "nan.csv"
        save_draws_csv(draws, str(path), "# header\n")
        return str(path)

    @pytest.mark.parametrize("bad", ["nan", "missing"])
    def test_bad_resp_file_exits_1_naming_it(self, small_codebook, seat_model, inputs,
                                             nan_model, tmp_path, capsys, fork_mode, bad):
        resp = nan_model if bad == "nan" else str(tmp_path / "missing.csv")
        with pytest.raises((DomainError, FileNotFoundError)) as expected:
            load_draws_csv(resp)
        assert self.counterfactual(small_codebook, inputs, tmp_path, seat_model, resp) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert resp in str(expected.value)
        assert_no_children()

    def test_two_bad_files_report_the_seat_file(self, small_codebook, inputs, nan_model,
                                                tmp_path, capsys, fork_mode):
        seat = str(tmp_path / "missing.csv")
        assert self.counterfactual(small_codebook, inputs, tmp_path, seat, nan_model) == 1
        err = capsys.readouterr().err
        assert seat in err and nan_model not in err
        assert_no_children()

    def failing_resp_loader(self, monkeypatch, resp, fail):
        original = cli.load_draws_csv

        def loader(path):
            if path == resp:
                fail()
            return original(path)

        monkeypatch.setattr(cli, "load_draws_csv", loader)

    def test_child_bug_propagates_as_its_type(self, small_codebook, seat_model, inputs,
                                              resp_model, tmp_path, monkeypatch, fork_mode):
        def fail():
            raise KeyError("internal")

        self.failing_resp_loader(monkeypatch, resp_model, fail)
        with pytest.raises(KeyError, match="internal"):
            self.counterfactual(small_codebook, inputs, tmp_path, seat_model, resp_model)
        assert_no_children()

    @pytest.mark.parametrize("death", ["exit", "unpicklable"])
    def test_child_without_result_names_the_file(self, small_codebook, seat_model, inputs,
                                                 resp_model, tmp_path, monkeypatch, death):
        def fail():
            if death == "exit":
                os._exit(9)
            # its __init__ takes two arguments, so it cannot be rebuilt from its args
            raise cli.ConvergenceError("no", Diagnostics({}, {}))

        self.failing_resp_loader(monkeypatch, resp_model, fail)
        with pytest.raises(RuntimeError, match=re.escape(resp_model)) as err:
            self.counterfactual(small_codebook, inputs, tmp_path, seat_model, resp_model)
        assert type(err.value) is RuntimeError
        assert_no_children()

    def test_child_killed_mid_stream_names_the_file(self):
        with cli._Forked("d.csv", lambda: b"x" * (4 << 20)) as child:
            chunks = iter(child)
            assert len(next(chunks)) == 1 << 20
            os.kill(child.pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="d.csv: the child process"):
                list(chunks)
        assert_no_children()

    def test_block_left_by_an_error_stops_the_child(self, fork_mode):
        # Nothing will read the child's bytes, so it is killed, not waited for.
        start = time.monotonic()
        with pytest.raises(DomainError, match="bad seat file"):
            with cli._Forked("d.csv", lambda: time.sleep(30) or b"") as child:
                forked = child.pid is not None
                raise DomainError("bad seat file")
        assert time.monotonic() - start < 5
        assert forked == (fork_mode == "fork")
        assert_no_children()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_child_leaves_no_draw_file(self, tmp_path, monkeypatch, fork_mode, existing):
        # The child's half fails after this process has written its own.
        original = cli._draw_rows

        def rows(draws, start, stop):
            if start > 0:
                raise KeyError("child half")
            return original(draws, start, stop)

        monkeypatch.setattr(cli, "_draw_rows", rows)
        path = tmp_path / "d.csv"
        if existing:
            path.write_bytes(b"an earlier run\n")
        with pytest.raises(KeyError, match="child half"):
            save_draws_csv(random_draws(2, 10), str(path))
        assert os.listdir(tmp_path) == (["d.csv"] if existing else [])
        assert not existing or read(path) == b"an earlier run\n"
        assert_no_children()


class TestWrite:
    """``cli._write``, which writes every output file whole or not at all."""

    @staticmethod
    def failing_chunks():
        yield b"first\n"
        raise KeyError("partway")

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_partway_leaves_no_trace(self, tmp_path, existing):
        path = tmp_path / "out.csv"
        if existing:
            path.write_bytes(b"old\n")
        with pytest.raises(KeyError, match="partway"):
            cli._write(str(path), self.failing_chunks())
        assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
        assert not existing or read(path) == b"old\n"

    def test_error_names_the_output(self, tmp_path):
        link = tmp_path / "out.csv"
        link.symlink_to(tmp_path / "nodir" / "x.csv")
        with pytest.raises(FileNotFoundError) as err:
            cli._write(str(link), [b"x"])
        assert err.value.filename == str(link) and os.listdir(tmp_path) == ["out.csv"]

    def test_new_file_gets_umask_permissions(self, tmp_path):
        old = os.umask(0o027)
        try:
            cli._write(str(tmp_path / "out.csv"), [b"a", b"b"])
        finally:
            os.umask(old)
        assert read(tmp_path / "out.csv") == b"ab"
        assert os.stat(tmp_path / "out.csv").st_mode & 0o777 == 0o640

    def test_symlink_keeps_its_link(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        cli._write(str(link), [b"new\n"])
        assert link.is_symlink() and read(target) == b"new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write never blocks
        try:
            cli._write(str(fifo), [b"a\n", b"b\n"])
            assert os.read(reader, 100) == b"a\nb\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(tmp_path) == ["pipe"]


@pytest.fixture
def command_argv(small_codebook, did_input, small_model, inputs, tmp_path):
    """Each subcommand's argv on valid inputs, with each output it takes in tmp_path."""
    plans = tmp_path / "plans.csv"
    plans.write_text("state,cycle,district,rep_share\nNH,2020,1,0.5\n")
    a, b, c = (str(tmp_path / name) for name in ("a.csv", "b.json", "c.csv"))
    return {
        "codebook": ["codebook", "--input", small_codebook, "--output", a],
        "leeway": ["leeway", "--codebook", small_codebook, "--output", a,
                   "--emit-diagnostics", b],
        "paths": ["paths", "--codebook", small_codebook, "--output", a, "--per-state", c],
        "metrics": ["metrics", "--plans", str(plans), "--output", a],
        "did": ["did", "--input", did_input, "--output-draws", a, "--output-diagnostics", b],
        "counterfactual": counterfactual_argv(small_codebook, small_model, inputs, b,
                                              "--doses-csv", a, "--line-samples", c),
    }


def _forbid_work(monkeypatch):
    """Fail the test if a command fits, solves or computes doses."""
    for owner, name in ((inference, "fit_posterior"), (cli.cf, "counterfactual_doses"),
                        (solver._TreeEvaluator, "solve")):
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: pytest.fail("work done"))


# Each subcommand's flags that name an output file.
_OUTPUT_FLAGS = [
    ("codebook", "--output"), ("leeway", "--output"), ("leeway", "--emit-diagnostics"),
    ("paths", "--output"), ("paths", "--per-state"), ("metrics", "--output"),
    ("did", "--output-draws"), ("did", "--output-diagnostics"), ("counterfactual", "--output"),
    ("counterfactual", "--doses-csv"), ("counterfactual", "--line-samples")]


@pytest.mark.parametrize("command, flag", _OUTPUT_FLAGS)
def test_missing_output_directory_exits_1_first(command, flag, command_argv, tmp_path,
                                                capsys, monkeypatch):
    _forbid_work(monkeypatch)
    before = sorted(tmp_path.rglob("*"))
    missing = tmp_path / "nodir" / "out"
    assert main([*command_argv[command], flag, str(missing)]) == 1
    assert capsys.readouterr().err == (f"error: {flag} {missing}: no such directory: "
                                       f"{missing.parent}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, flag", _OUTPUT_FLAGS)
def test_dangling_symlink_output_exits_1_first(command, flag, command_argv, tmp_path,
                                               capsys, monkeypatch):
    # The link's own directory exists; the one _write resolves it into does not.
    _forbid_work(monkeypatch)
    link = tmp_path / "out.csv"
    link.symlink_to(tmp_path / "nodir" / "x.csv")
    before = sorted(tmp_path.rglob("*"))
    assert main([*command_argv[command], flag, str(link)]) == 1
    assert capsys.readouterr() == ("", f"error: {flag} {link}: no such directory: "
                                       f"{tmp_path / 'nodir'}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, flag", _OUTPUT_FLAGS)
def test_output_that_is_a_directory_exits_1_first(command, flag, command_argv, tmp_path,
                                                  capsys, monkeypatch):
    # Found only on writing, it left the outputs written before it behind.
    _forbid_work(monkeypatch)
    directory = tmp_path / "dir"
    directory.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main([*command_argv[command], flag, str(directory)]) == 1
    assert capsys.readouterr().err == f"error: {flag} {directory}: is a directory\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, flag, other", [
    ("leeway", "--emit-diagnostics", "--output"), ("paths", "--per-state", "--output"),
    ("did", "--output-diagnostics", "--output-draws"),
    ("counterfactual", "--line-samples", "--doses-csv"), ("codebook", "--output", "--input"),
    ("metrics", "--output", "--plans"), ("counterfactual", "--output", "--seat-model")])
def test_output_clash_is_a_usage_error(command, flag, other, command_argv, tmp_path, capsys,
                                       monkeypatch):
    # An output that names another output or an input, spelled another way.
    _forbid_work(monkeypatch)
    argv = command_argv[command]
    path = argv[argv.index(other) + 1]
    spelled = os.path.join(os.path.dirname(path), ".", os.path.basename(path))
    before = sorted(tmp_path.rglob("*"))
    content = os.path.exists(path) and read(path)
    assert main([*argv, flag, spelled]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: {flag} {spelled} is the same file as {other} {path}\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert (os.path.exists(path) and read(path)) == content


class TestDataErrorsExit1:
    """Bad input exits 1 with its file and line named; a bug is not a data error."""

    # The command and flag that read each kind of input.
    READERS = {"plans": ("metrics", "--plans"), "ensemble": ("metrics", "--ensemble"),
               "did": ("did", "--input"), "covariates": ("counterfactual", "--covariates"),
               "baseline": ("counterfactual", "--baseline")}

    def rejected(self, command_argv, tmp_path, reader, text):
        """The path of ``text`` as the input ``reader`` reads, which its command rejects."""
        bad = tmp_path / "bad"
        bad.write_text(text)
        command, flag = self.READERS[reader]
        assert main([*command_argv[command], flag, str(bad)]) == 1
        return bad

    def test_internal_key_error_propagates(self, small_codebook, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")
        monkeypatch.setattr(cli.solver._TreeEvaluator, "solve", broken)
        with pytest.raises(KeyError):
            main(["leeway", "--codebook", small_codebook, "--draws", "2",
                  "--output", str(tmp_path / "l.csv")])

    def test_ensemble_cell_and_columns(self, tmp_path, capsys):
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share\nNH,2020,1,0.5\n")
        ensemble = tmp_path / "ens.csv"
        for text, message in (
                ("state,cycle,metric,mean,sd\nNH,2020,competitive_share,0.2\n",
                 "line 2: sd='' is not a valid float"),
                ("state,cycle,metric,mean\n", "ensemble file must have columns")):
            ensemble.write_text(text)
            assert main(["metrics", "--plans", str(plans), "--ensemble", str(ensemble),
                         "--output", str(tmp_path / "m.csv")]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("plan,ensemble,message", [
        ("rep_share\nNH,2020,1,1.0\n", None,
         "line 2: rep_share='1.0' must lie strictly inside (0, 1)"),
        ("rep_share,turnout\nNH,2020,1,0.5,2\nNH,2020,2,0.4,-1\n", None,
         "line 3: turnout='-1' must be positive"),
        ("rep_share\nNH,2020,1,0.5\n", "NH,2020,competitive_share,0.2,-1\n",
         "line 2: sd='-1' must be nonnegative"),
        ("rep_share,turnout\nAL,2020,1,0.4,1e308\nAL,2020,2,0.6,1e308\n"
         "AL,2020,3,0.55,1e308\n", None,
         "line 2: AL,2020: turnout_weights: their sum overflows to inf"),
        # Numbers as np.loadtxt reads them in a draw file, not as int and float do
        ("rep_share\nNH,2_020,1,0.5\n", None, "line 2: cycle='2_020' is not a valid int"),
        ("rep_share\nNH,2020,1,0.\u0665\n", None,
         "line 2: rep_share='0.\u0665' is not a valid float"),
    ], ids=["rep_share", "turnout", "sd", "turnout-sum", "underscore", "arabic-digit"])
    def test_metrics_value_out_of_range(self, tmp_path, capsys, plan, ensemble, message):
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district," + plan, encoding="utf-8")
        argv = ["metrics", "--plans", str(plans), "--output", str(tmp_path / "m.csv")]
        bad = plans
        if ensemble is not None:
            bad = tmp_path / "ens.csv"
            bad.write_text("state,cycle,metric,mean,sd\n" + ensemble)
            argv += ["--ensemble", str(bad)]
        assert main(argv) == 1
        assert f"{bad}, {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["plans", "ensemble"])
    def test_duplicate_rows(self, tmp_path, capsys, reader):
        # A repeated district used to count as one more district, and a
        # repeated ensemble metric silently replaced the first.
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share\nNH,2020,1,0.5\nNH,2020,2,0.4\n"
                         "TX,2020,1,0.6\n")
        argv = ["metrics", "--plans", str(plans), "--output", str(tmp_path / "m.csv")]
        if reader == "plans":
            bad, message = plans, "lines 2 and 5: duplicate district NH,2020,1"
            plans.write_text(plans.read_text() + "NH,2020,1,0.5\n")
        else:
            bad = tmp_path / "ens.csv"
            message = "lines 2 and 4: duplicate metric TX,2020,competitive_share"
            bad.write_text("state,cycle,metric,mean,sd\nTX,2020,competitive_share,0.2,0.1\n"
                           "NH,2020,competitive_share,0.2,0.1\n"
                           "TX,2020,competitive_share,0.9,0.1\n")
            argv += ["--ensemble", str(bad)]
        assert main(argv) == 1
        assert f"{bad}, {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("reader", ["plans", "ensemble", "did", "covariates"])
    def test_extra_cell_exits_1(self, did_input, inputs, command_argv, tmp_path, capsys,
                                reader):
        # csv.DictReader files the cells past the header under None, so a
        # forgotten column such as turnout used to be dropped without a word.
        did_lines = open(did_input).read().splitlines(keepends=True)
        did_lines[3] = did_lines[3].rstrip("\n") + ",0.9\n"
        text, message = {
            "plans": ("state,cycle,district,rep_share\nAL,2020,1,0.4,0.9\n",
                      "line 2: 5 cells, expected 4"),
            "ensemble": ("state,cycle,metric,mean,sd\nNH,2020,competitive_share,0.2,0.1,3\n",
                         "line 2: 6 cells, expected 5"),
            "did": ("".join(did_lines), "line 4: 12 cells, expected 11"),
            "covariates": (open(inputs[0]).read().replace(",0,7\n", ",0,7,9\n", 1),
                           "line 2: 9 cells, expected 8"),
        }[reader]
        bad = self.rejected(command_argv, tmp_path, reader, text)
        assert f"{bad}, {message}" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in ("a.csv", "b.json", "c.csv"))

    def test_header_error_comes_before_cell_counts(self, tmp_path, capsys):
        # A header missing a column names the columns, not the longer rows.
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,rep_share\nAL,2020,1,0.4\n")
        assert main(["metrics", "--plans", str(plans),
                     "--output", str(tmp_path / "m.csv")]) == 1
        assert "plan file must have columns" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["AL,2020,expected_seat,1.1,0.3",
                                     "ZZ,2020,expected_seats,1.1,0.3",
                                     "AL,2010,expected_seats,1.1,0.3"],
                             ids=["unknown-metric", "no-such-plan", "other-cycle"])
    def test_ensemble_row_matching_no_metric_exits_1(self, tmp_path, capsys, row):
        # Such a row used to adjust nothing and exit 0.
        plans, ensemble = tmp_path / "plans.csv", tmp_path / "ens.csv"
        plans.write_text("state,cycle,district,rep_share\nAL,2020,1,0.4\nAL,2020,2,0.6\n")
        ensemble.write_text("# a comment line\nstate,cycle,metric,mean,sd\n"
                            f"AL,2020,expected_seats,1.1,0.3\n{row}\n")
        out = tmp_path / "m.csv"
        assert main(["metrics", "--plans", str(plans), "--ensemble", str(ensemble),
                     "--output", str(out)]) == 1
        assert (f"{ensemble}, line 4: {row.rsplit(',', 2)[0]} matches no plan's metric"
                in capsys.readouterr().err)
        assert not out.exists()


    def test_did_repeated_state(self, did_input, tmp_path, capsys):
        # The model has one row per state; a repeat would count a state twice.
        lines = open(did_input).read().splitlines(keepends=True)
        bad = tmp_path / "did.csv"
        bad.write_text("".join([*lines, lines[3]]))
        assert main(["did", "--input", str(bad), "--output-draws", str(tmp_path / "d.csv"),
                     "--output-diagnostics", str(tmp_path / "d.json")]) == 1
        assert f"{bad}, lines 4 and 89: duplicate state S02" in capsys.readouterr().err

    def test_non_finite_draw_exits_1(self, small_codebook, inputs, tmp_path, capsys):
        # A nan log_seats coefficient used to load with passing diagnostics.
        draws = random_draws(4, 1000, seed=4, decades=1)
        draws.coefficients[2, 500, COLUMN_NAMES.index("log_seats")] = float("nan")
        path = tmp_path / "nan.csv"
        save_draws_csv(draws, str(path), "# header\n")
        assert main(counterfactual_argv(small_codebook, str(path), inputs,
                                        tmp_path / "o.json")) == 1
        err = capsys.readouterr().err
        # two header lines, then chain 2's draw 500 after 2 x 1,000 rows
        assert str(path) in err and "line 2503: log_seats='nan' is not finite" in err

    @pytest.mark.parametrize("covariates,baseline,message", [
        ("AL,0.39,1,1.95,0,1.2,0,seven\n", None, "line 2: n_districts='seven'"),
        (None, '{"dem_seats": 213.5}', "baseline is missing key 'slope_seats_per_pp'"),
        (None, '{"dem_seats": 213.5,', "not valid JSON"),
        (None, '[213.5, 7.8]', "numeric dem_seats"),
        (None, '{"dem_seats": "many", "slope_seats_per_pp": 7.8}', "numeric dem_seats"),
        ("AL,0.39,1,1.95,0,1.2,0,7\nAL,0.41,1,1.95,0,1.2,0,7\n", None,
         "cov.csv, lines 2 and 3: duplicate state AL"),
        ("AL,0.39,1,1.95,0,1.2,0,-7\n", None,
         "cov.csv, line 2: n_districts='-7' must be positive"),
        ("AL,0.39,1,1.95,0,1.2,0,0\n", None, "cov.csv, line 2: n_districts='0' must be positive"),
        pytest.param(None, '{"dem_seats": true, "slope_seats_per_pp": 7.8}',
                     "needs numeric dem_seats, got true", id="baseline-bool"),
        pytest.param(None, '{"dem_seats": 213.5, "slope_seats_per_pp": "12"}',
                     'needs numeric slope_seats_per_pp, got "12"', id="baseline-string"),
        pytest.param(None, '{"dem_seats": null, "slope_seats_per_pp": 7.8}',
                     "needs numeric dem_seats, got null", id="baseline-null"),
        pytest.param(None, '{"dem_seats": 1' + "0" * 400 + ', "slope_seats_per_pp": 7.8}',
                     "must be finite, got dem_seats=10000", id="baseline-huge-int"),
        pytest.param(None, '{"dem_seats": ' + "1" * 5000 + ', "slope_seats_per_pp": 7.8}',
                     "not valid JSON", id="baseline-overlong-int"),
        pytest.param(None, "[" * 100_000 + "]" * 100_000, "not valid JSON",
                     id="baseline-deep-nesting"),
        pytest.param(None, '{"dem_seats": 213.5, "slope_seats_per_pp": 7.8, "note": "\udce9"}',
                     "base.json: not valid JSON ('utf-8' codec can't decode byte 0xe9",
                     id="baseline-latin1"),
        pytest.param(None, '\ufeff{"dem_seats": 213.5}',
                     "base.json: baseline is missing key 'slope_seats_per_pp'", id="bom"),
    ])
    def test_counterfactual_inputs(self, small_codebook, small_model, inputs, tmp_path,
                                   capsys, covariates, baseline, message):
        cov, base = inputs
        if covariates is not None:
            cov = tmp_path / "cov.csv"
            cov.write_text("state,dem08,south,log_seats,delta_seats,log_corrupt,"
                           "initiative,n_districts\n" + covariates)
        if baseline is not None:
            base = tmp_path / "base.json"
            base.write_bytes(baseline.encode("utf-8", "surrogateescape"))
        assert main(counterfactual_argv(small_codebook, small_model, (str(cov), str(base)),
                                        tmp_path / "o.json")) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["plans", "ensemble", "did", "covariates", "baseline"])
    def test_non_finite_number(self, did_input, inputs, command_argv, tmp_path, capsys, reader):
        did_lines = open(did_input).read().splitlines(keepends=True)
        did_lines[3] = did_lines[3].replace(",0.0,", ",inf,", 1)  # dY0 is 0.0 on every row
        text, message = {
            "plans": ("state,cycle,district,rep_share,turnout\nNH,2020,1,0.5,nan\n",
                      "line 2: turnout='nan' is not finite"),
            "ensemble": ("state,cycle,metric,mean,sd\nNH,2020,competitive_share,0.2,nan\n",
                         "line 2: sd='nan' is not finite"),
            "did": ("".join(did_lines), "line 4: dY0='inf' is not finite"),
            "covariates": (open(inputs[0]).read().replace(",1.95,", ",-inf,"),
                           "line 2: log_seats='-inf' is not finite"),
            "baseline": ('{"dem_seats": NaN, "slope_seats_per_pp": 7.8}',
                         "dem_seats and slope_seats_per_pp must be finite"),
        }[reader]
        bad = self.rejected(command_argv, tmp_path, reader, text)
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_zero_chains(self, command_argv, capsys):
        assert main([*command_argv["did"], "--chains", "0"]) == 1
        assert capsys.readouterr().err == "error: 0 chains; a fit needs at least 1\n"

    def test_nan_grid_step(self, command_argv, capsys):
        assert main([*command_argv["leeway"], "--grid-step", "nan"]) == 1
        assert "grid step nan out of range" in capsys.readouterr().err

    def test_zero_draws(self, command_argv, capsys):
        assert main([*command_argv["leeway"], "--draws", "0"]) == 1
        assert capsys.readouterr().err == "error: n_draws must be at least 1\n"

    def test_tiny_grid_step(self, command_argv, capsys):
        # A step of 1e-9 would ask for a grid of 8 billion points.
        assert main([*command_argv["leeway"], "--grid-step", "1e-9"]) == 1
        assert "grid step 1e-09 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["leeway", "paths", "did", "counterfactual"])
    def test_negative_seed(self, command, command_argv, capsys):
        assert main([*command_argv[command], "--seed", "-1"]) == 1
        assert "seed -1 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"stale_slope": {"dist": "normal", "params": [0.1, 0.05]}}', "support"),
        ('{"stale_slope": {"dist": "beta"}}', "override must be"),
        ('{"stale_slope": ', "not valid JSON"),
        pytest.param('{"stale_slope": {"dist": "beta", "params": [1, 1' + "0" * 400 + ']}}',
                     "two finite numbers", id="huge-int"),
        pytest.param('{"stale_slope": {"dist": "beta", "params": [1, ' + "1" * 5000 + ']}}',
                     "not valid JSON", id="overlong-int"),
        pytest.param("[" * 100_000 + "]" * 100_000, "not valid JSON", id="deep-nesting"),
        pytest.param('{"no_such_parameter": {"dist": "beta", "params": [1, 1]}}',
                     "unknown parameter 'no_such_parameter'", id="unknown-parameter"),
        pytest.param('{"stale_slope": {"dist": "b\udce9ta", "params": [1, 1]}}',
                     "'utf-8' codec can't decode byte 0xe9", id="latin1"),
        pytest.param('\ufeff{"stale_slope": {"dist": "beta"}}', "override must be", id="bom"),
    ])
    def test_prior_file(self, small_codebook, tmp_path, capsys, text, message):
        priors = tmp_path / "priors.json"
        priors.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["leeway", "--codebook", small_codebook, "--draws", "2",
                     "--priors", str(priors), "--output", str(tmp_path / "l.csv")]) == 1
        err = capsys.readouterr().err
        assert str(priors) in err and message in err

    @pytest.mark.parametrize("command,name,kind", [
        ("leeway", "vra_out_breakeven", "normal"),
        ("paths", "out_nonp_bias2", "folded_normal"),
    ])
    def test_non_finite_prior_draw(self, tmp_path, capsys, command, name, kind):
        # A scale of 1e308 overflows some draws to inf. The run must stop
        # before a solve turns them into NaN scores.
        book = tmp_path / "book.csv"
        book.write_text(serialize_codebook(load_fixture_codebook()))
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({name: {"dist": kind, "params": [0, 1e308]}}))
        out = tmp_path / "out.csv"
        assert main([command, "--codebook", str(book), "--priors", str(priors),
                     "--draws", "20", "--seed", "1", "--output", str(out)]) == 1
        assert re.fullmatch(rf"error: {name}=-?inf is not finite\n", capsys.readouterr().err)
        assert not out.exists()

    def test_curve_probability_at_zero_names_parameter_and_draw(self, small_codebook, tmp_path,
                                                                capsys):
        # Beta(0.001, 1) draws underflow to exactly 0, which has no Cauchy quantile.
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"chal_prob_bias0": {"dist": "beta",
                                                          "params": [0.001, 1]}}))
        out = tmp_path / "out.csv"
        assert main(["leeway", "--codebook", small_codebook, "--priors", str(priors),
                     "--draws", "5", "--seed", "1", "--output", str(out)]) == 1
        assert capsys.readouterr().err == ("error: chal_prob_bias0=0.0 at draw 1: a curve "
                                           "probability must lie strictly inside (0, 1)\n")
        assert not out.exists()

    @pytest.mark.parametrize("dem08,baseline,quantity", [
        (None, '{"dem_seats": 1e308, "slope_seats_per_pp": 7.8}', "seats-votes intercept"),
        (None, '{"dem_seats": 213.5, "slope_seats_per_pp": 1e308}', "responsiveness slope"),
        (None, '{"dem_seats": 1e308, "slope_seats_per_pp": 1e308}', "responsiveness slope"),
        ("1e308", None, "seat effect of AL"),
        ("-1e308", None, "seat effect of AL"),
    ], ids=["dem_seats", "slope", "both", "dem08-plus", "dem08-minus"])
    def test_overflow_exits_1(self, small_codebook, small_model, inputs, tmp_path, capsys,
                              dem08, baseline, quantity):
        # Each value is finite, so it passes the input checks; the national
        # sums or a state's effect used to overflow into "Infinity" or "NaN"
        # in the output JSON, with exit 0.
        cov, base = inputs
        if dem08 is not None:  # on AL, whose dose the mi template changes
            text = open(cov).read().replace("AL,0.39,", f"AL,{dem08},")
            cov = tmp_path / "cov.csv"
            cov.write_text(text)
        if baseline is not None:
            base = tmp_path / "base.json"
            base.write_text(baseline)
        outputs = [tmp_path / name for name in ("cf.json", "doses.csv", "lines.csv")]
        assert main(counterfactual_argv(small_codebook, small_model, (str(cov), str(base)),
                                        outputs[0], "--doses-csv", str(outputs[1]),
                                        "--line-samples", str(outputs[2]))) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {quantity} overflows: a draw, the mean or the spread "
                       "is not finite\n")
        assert not any(path.exists() for path in outputs)


# Edits to a valid table. The first seven put a fault on line 3, and the
# table is rejected naming that line: a '#' line after the header is a row,
# and "\udce9" is written as the byte 0xe9, which is not UTF-8. A renamed
# column fails the header check. The rest change nothing a reader keeps:
# U+2028 is a line break to str.splitlines but not to a CSV file.
_TABLE_EDITS = {
    "extra-cell": lambda lines: lines[:2] + [lines[2].rstrip("\n") + ",9\n"] + lines[3:],
    "short-row": lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + "\n"] + lines[3:],
    "comment-line": lambda lines: lines[:2] + ["# a comment line\n"] + lines[2:],
    "bad-quote": lambda lines: lines[:2] + ['"U"X,' + lines[2].split(",", 1)[1]] + lines[3:],
    "open-quote": lambda lines: lines[:2] + ['"' + lines[2]],
    "huge-cell": lambda lines: lines[:2] + ["x" * 140_000 + "," + lines[2].split(",", 1)[1]]
    + lines[3:],
    "latin1": lambda lines: lines[:2] + ["\udce9" + lines[2]] + lines[3:],
    "renamed-column": lambda lines: [lines[0].replace("state", "name", 1), *lines[1:]],
    "crlf": lambda lines: [line.replace("\n", "\r\n") for line in lines],
    "blank-line": lambda lines: lines[:2] + ["\n"] + lines[2:],
    "u2028": lambda lines: lines[:2] + ["U\u2028X," + lines[2].split(",", 1)[1]] + lines[3:],
    "bom": lambda lines: ["\ufeff" + lines[0], *lines[1:]],
    "leading-comment": lambda lines: ["# a comment line\n", *lines],
    "padded-header": lambda lines: [lines[0].replace(",", " , "), *lines[1:]],
}


@pytest.mark.parametrize("edit", _TABLE_EDITS)
@pytest.mark.parametrize("reader", ["codebook", "plans", "ensemble", "did", "covariates"])
def test_table_readers_share_one_set_of_rules(reader, edit, small_codebook, did_input,
                                              small_model, inputs, tmp_path, capsys):
    # Line 3 of each table holds a row whose state no other input needs.
    cov, base = inputs
    table, out = tmp_path / "table.csv", tmp_path / "out"
    plans = tmp_path / "plans.csv"
    plans.write_text("state,cycle,district,rep_share\nNH,2020,1,0.5\nNH,2020,2,0.4\n"
                     "U\u2028X,2020,1,0.5\n", encoding="utf-8")
    cov_lines = open(cov).read().splitlines(keepends=True)
    text, argv = {
        "codebook": (open(small_codebook).read(), ["codebook", "--input", str(table)]),
        "plans": ("state,cycle,district,rep_share\nNH,2020,1,0.5\nVT,2020,1,0.45\n",
                  ["metrics", "--plans", str(table), "--output", str(out)]),
        "ensemble": ("state,cycle,metric,mean,sd\nNH,2020,competitive_share,0.2,0.1\n"
                     "NH,2020,expected_seats,1.1,0.3\n",
                     ["metrics", "--plans", str(plans), "--ensemble", str(table),
                      "--output", str(out)]),
        "did": (open(did_input).read(),
                ["did", "--input", str(table), "--draws", "1000", "--output-draws", str(out),
                 "--output-diagnostics", str(tmp_path / "diag.json")]),
        "covariates": ("".join([*cov_lines[:2], "ZZ,0.5,0,1.0,0,1.0,0,3\n", *cov_lines[2:]]),
                       counterfactual_argv(small_codebook, small_model, inputs, out,
                                           "--covariates", str(table))),
    }[reader]
    table.write_bytes("".join(_TABLE_EDITS[edit](text.splitlines(keepends=True)))
                      .encode("utf-8", "surrogateescape"))
    code = main(argv)
    err = capsys.readouterr().err
    if edit in list(_TABLE_EDITS)[:8]:
        assert code == 1
        where = "" if edit == "renamed-column" else ", line 3: "
        assert err.startswith(f"error: {table}{where}") and err.count("\n") == 1, err
        assert not out.exists()
    else:
        assert code == 0, err
