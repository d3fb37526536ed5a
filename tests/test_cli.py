import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from leeway import cli, solver
from leeway.cli import load_draws_csv, main, save_draws_csv
from leeway.codebook import (Codebook, Drawer, load_fixture_codebook, parse_codebook,
                             serialize_codebook)
from leeway.errors import DomainError
from leeway.inference import (COLUMN_NAMES, Diagnostics, PosteriorDraws, _rhat_ess,
                              design_row)


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

    def test_normalize_roundtrip(self, small_codebook, tmp_path):
        out = tmp_path / "norm.csv"
        assert main(["codebook", "--input", small_codebook,
                     "--output", str(out)]) == 0
        body = "".join(ln for ln in out.read_text().splitlines(keepends=True)
                       if not ln.startswith("#"))
        assert body == open(small_codebook).read()

    def test_usage_error_exit_2(self):
        assert main(["codebook"]) == 2


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second to import and only rank stability
    # needs it, and scipy.special most of the rest of the import, so both
    # are loaded on first use.
    import leeway
    src = os.path.dirname(os.path.dirname(leeway.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, leeway.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False False"


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
        # One realized and one all-Democratic solve per row: the diagnostics
        # are written from the realized solve the scores already made.
        calls = []
        real = solver.solve_batch

        def counting(process, assignment, *args, **kwargs):
            calls.append(process.key)
            return real(process, assignment, *args, **kwargs)

        monkeypatch.setattr(solver, "solve_batch", counting)
        assert main(["leeway", "--codebook", small_codebook, "--draws", "2", "--seed", "2",
                     "--output", str(tmp_path / "l.csv"),
                     "--emit-diagnostics", str(tmp_path / "d.json")]) == 0
        with open(small_codebook, "rb") as fh:
            solvable = [r.key for r in parse_codebook(fh) if r.drawer is not Drawer.NA]
        assert sorted(calls) == sorted(solvable * 2)


# SHA-256 of `leeway --emit-diagnostics` JSON and `paths --per-state` CSV on the
# fixture at 6 draws, seed 7, and of a `counterfactual --doses-csv` CSV on the
# small codebook and fitted model at 6 draws, seed 7, without the config hash
# and the header comments, which name the input paths. The fixture reaches both
# ways of recording veto thresholds: partisan drawers (AL, WI) and split or
# nonpartisan drawers with a partisan veto (IA, MN-2020, NY, OH-2020, VA-2010).
_GOLDEN_DIAGNOSTICS = "29b924517bef4eaa9c0ef37c547d16792d0af715e7cff3144adc545e72a00625"
_GOLDEN_PER_STATE = "f0291cd01ab3c2b0115d05041ea43228e69ad55a968ee51538e44efc538d3d1f"
_GOLDEN_DOSES = "e231a8c33f4e962aff50f8dbf43c8eb99d65979f9fe3e86804e6bead0bbbafb1"


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
    doses = tmp_path / "doses.csv"
    assert main(["counterfactual", "--template", "ny", "--codebook", small_codebook,
                 "--seat-model", fitted_model, "--resp-model", fitted_model,
                 "--covariates", cov, "--baseline", base, "--draws", "6", "--seed", "7",
                 "--output", str(tmp_path / "cf.json"), "--doses-csv", str(doses)]) == 0
    assert hashlib.sha256(_body(doses)).hexdigest() == _GOLDEN_DOSES


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
    def test_fit_and_outputs(self, did_input, tmp_path):
        draws = tmp_path / "draws.csv"
        diag = tmp_path / "diag.json"
        assert main(["did", "--input", did_input, "--seed", "5",
                     "--output-draws", str(draws),
                     "--output-diagnostics", str(diag)]) == 0
        payload = json.loads(diag.read_text())
        assert max(payload["rhat"].values()) < 1.05
        assert min(payload["ess"].values()) > 400
        assert payload["acr"]["mean"] == pytest.approx(0.25, abs=0.05)

    def test_underpowered_run_fails_cleanly(self, did_input, tmp_path, capsys):
        code = main(["did", "--input", did_input, "--seed", "5", "--draws", "200",
                     "--chains", "2",
                     "--output-draws", str(tmp_path / "x.csv"),
                     "--output-diagnostics", str(tmp_path / "x.json")])
        assert code == 1
        assert "converge" in capsys.readouterr().err
        # The diagnostics of the failed fit are still written; no draws are.
        diagnostics = json.loads(read(tmp_path / "x.json"))
        assert min(diagnostics["ess"].values()) <= 400
        assert diagnostics["acr"] is None
        assert not (tmp_path / "x.csv").exists()

    def test_too_few_draws_exits_1(self, did_input, tmp_path, capsys):
        code = main(["did", "--input", did_input, "--seed", "5", "--draws", "1",
                     "--output-draws", str(tmp_path / "x.csv"),
                     "--output-diagnostics", str(tmp_path / "x.json")])
        assert code == 1
        assert "split R-hat needs at least 4" in capsys.readouterr().err

    def test_byte_identical_rerun(self, did_input, tmp_path):
        blobs = []
        for name in ("a", "b"):
            draws = tmp_path / f"{name}.csv"
            diag = tmp_path / f"{name}.json"
            assert main(["did", "--input", did_input, "--seed", "42",
                         "--draws", "8000", "--chains", "4",
                         "--output-draws", str(draws),
                         "--output-diagnostics", str(diag)]) == 0
            blobs.append(read(draws) + read(diag))
        assert blobs[0] == blobs[1]


@pytest.fixture(scope="module")
def fitted_model(did_input, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "draws.csv"
    diag = tmp_path_factory.mktemp("model") / "diag.json"
    assert main(["did", "--input", did_input, "--seed", "5",
                 "--output-draws", str(path),
                 "--output-diagnostics", str(diag)]) == 0
    return str(path)


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


class TestCounterfactualCommand:
    def test_identity_is_exact_zero(self, small_codebook, fitted_model, inputs, tmp_path):
        cov, base = inputs
        out = tmp_path / "cf.json"
        assert main(["counterfactual", "--template", "identity",
                     "--codebook", small_codebook, "--seat-model", fitted_model,
                     "--resp-model", fitted_model, "--covariates", cov,
                     "--baseline", base, "--draws", "5", "--seed", "3",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["total_dem_seat_change"]["mean"] == 0.0
        assert payload["seats_votes_line"]["intercept_seats"] == 213.5
        # per-draw slope change is exactly zero; the mean over draws picks
        # up at most summation rounding
        assert payload["seats_votes_line"]["slope_seats_per_pp"] == pytest.approx(
            7.8, abs=1e-12)

    def test_mi_run_with_all_outputs(self, small_codebook, fitted_model, inputs, tmp_path):
        cov, base = inputs
        out = tmp_path / "cf.json"
        doses = tmp_path / "doses.csv"
        lines = tmp_path / "lines.csv"
        assert main(["counterfactual", "--template", "mi",
                     "--codebook", small_codebook, "--seat-model", fitted_model,
                     "--resp-model", fitted_model, "--covariates", cov,
                     "--baseline", base, "--draws", "5", "--seed", "3",
                     "--output", str(out), "--doses-csv", str(doses),
                     "--line-samples", str(lines)]) == 0
        dose_rows = list(csv.DictReader(ln for ln in doses.read_text().splitlines()
                                        if not ln.startswith("#")))
        by_state = {r["state"]: r for r in dose_rows}
        assert set(by_state) == {"AL", "KS", "MI", "OH"}  # 2020 rows only
        assert float(by_state["KS"]["d_reformed"]) == 0.0
        payload = json.loads(out.read_text())
        assert payload["total_dem_seat_change"]["mean"] > 0.0
        line_rows = [ln for ln in lines.read_text().splitlines()
                     if not ln.startswith("#")]
        assert len(line_rows) - 1 == 40000  # one per posterior draw

    def test_missing_covariates_exit_1(self, small_codebook, fitted_model, inputs,
                                       tmp_path, capsys):
        _, base = inputs
        cov = tmp_path / "cov.csv"
        cov.write_text(
            "state,dem08,south,log_seats,delta_seats,log_corrupt,initiative,n_districts\n"
            "AL,0.39,1,1.95,0,1.2,0,7\n")
        assert main(["counterfactual", "--template", "mi",
                     "--codebook", small_codebook, "--seat-model", fitted_model,
                     "--resp-model", fitted_model, "--covariates", str(cov),
                     "--baseline", base, "--draws", "3", "--seed", "3",
                     "--output", str(tmp_path / "o.json")]) == 1
        assert "missing covariates" in capsys.readouterr().err


def random_draws(chains, n, seed=0, decades=5):
    """Draws with full-precision floats spread over +-``decades`` powers of ten."""
    rng = np.random.default_rng(seed)
    coefficients = rng.normal(size=(chains, n, len(COLUMN_NAMES)))
    coefficients *= 10.0 ** rng.integers(-decades, decades, size=coefficients.shape)
    coefficients[0, 0, :3] = (-0.0, 5e-324, 0.1)
    sigma = rng.gamma(2.0, size=(chains, n))
    return PosteriorDraws(coefficients=coefficients, sigma=sigma, column_names=COLUMN_NAMES,
                          diagnostics=Diagnostics({}, {}, (), ()))


def reference_draw_file(draws, header):
    """The draw file format, written one cell at a time."""
    lines = [header, ",".join(["chain", "draw", *draws.column_names, "sigma"]) + "\n"]
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
        assert loaded.column_names == COLUMN_NAMES
        for j, name in enumerate(COLUMN_NAMES):
            rhat, ess = _rhat_ess(draws.coefficients[:, :, j])
            assert (loaded.diagnostics.rhat[name], loaded.diagnostics.ess[name]) == (rhat, ess)
        assert (loaded.diagnostics.rhat["sigma"],
                loaded.diagnostics.ess["sigma"]) == _rhat_ess(draws.sigma)

    def test_bytes_match_reference_writer(self, tmp_path):
        # more rows per chain than one write chunk, so chunk seams are covered
        draws = random_draws(2, 2003, seed=1, decades=300)
        path = tmp_path / "d.csv"
        header = "# leeway v0 seed=1 config=abc\n"
        save_draws_csv(draws, str(path), header)
        assert read(path) == reference_draw_file(draws, header)

    def test_interleaved_chains_load_like_sorted(self, tmp_path):
        draws = random_draws(3, 30, seed=2)
        path = tmp_path / "d.csv"
        save_draws_csv(draws, str(path), "# header\n")
        header, rows = draw_file_lines(path)
        # round-robin over chains, highest chain first, keeping each chain's order
        by_chain = [rows[c * 30:(c + 1) * 30] for c in (2, 1, 0)]
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("# header\n" + header + "".join(
            line for t in range(30) for line in (*(chain[t] for chain in by_chain),
                                                  "# a comment line\n")))
        a, b = load_draws_csv(str(path)), load_draws_csv(str(mixed))
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
        self.assert_rejected(saved, "line 6: 18 cells, expected 19")

    def test_every_row_short_rejected(self, saved):
        self.rewrite(saved, lambda rows: [r.rsplit(",", 1)[0] + "\n" for r in rows])
        self.assert_rejected(saved, "18 cells, expected 19")

    def test_unparseable_cell_rejected(self, saved):
        self.rewrite(saved, lambda rows: [*rows[:4], "0,x," + rows[4].split(",", 2)[2],
                                          *rows[5:]])
        self.assert_rejected(saved, "line 7: cell 'x' is not a number")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, saved, cell):
        self.rewrite(saved, lambda rows: [*rows[:4], rows[4].rsplit(",", 1)[0] + f",{cell}\n",
                                          *rows[5:]])
        self.assert_rejected(saved, f"line 7: cell '{cell}' is not finite")

    def test_wrong_header_rejected(self, saved):
        saved.write_text(saved.read_text().replace(",sigma\n", ",scale\n"))
        self.assert_rejected(saved, "column layout")

    def test_bad_draw_file_exits_1(self, small_codebook, inputs, saved, tmp_path, capsys):
        self.rewrite(saved, lambda rows: rows[:-1])
        cov, base = inputs
        assert main(["counterfactual", "--template", "mi",
                     "--codebook", small_codebook, "--seat-model", str(saved),
                     "--resp-model", str(saved), "--covariates", cov,
                     "--baseline", base, "--draws", "2", "--seed", "3",
                     "--output", str(tmp_path / "o.json")]) == 1
        assert "unequal lengths" in capsys.readouterr().err


class TestDataErrorsExit1:
    """Bad input exits 1 with its file and line named; a bug is not a data error."""

    def test_internal_key_error_propagates(self, small_codebook, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")
        monkeypatch.setattr(cli.solver, "solve_batch", broken)
        with pytest.raises(KeyError):
            main(["leeway", "--codebook", small_codebook, "--draws", "2",
                  "--output", str(tmp_path / "l.csv")])

    def test_plan_cell(self, tmp_path, capsys):
        plans = tmp_path / "plans.csv"
        plans.write_text("# comment\nstate,cycle,district,rep_share\n"
                         "NH,2020,1,0.5\nNH,2020,2,half\n")
        assert main(["metrics", "--plans", str(plans),
                     "--output", str(tmp_path / "m.csv")]) == 1
        assert f"{plans}, line 4: rep_share='half'" in capsys.readouterr().err

    def test_plan_cycle(self, tmp_path, capsys):
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share\nNH,2020.5,1,0.5\n")
        assert main(["metrics", "--plans", str(plans),
                     "--output", str(tmp_path / "m.csv")]) == 1
        assert "line 2: cycle='2020.5' is not a valid int" in capsys.readouterr().err

    def test_ensemble_cell_and_columns(self, tmp_path, capsys):
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share\nNH,2020,1,0.5\n")
        ensemble = tmp_path / "ens.csv"
        for text, message in (
                ("state,cycle,metric,mean,sd\nNH,2020,competitive_share,0.2\n",
                 "line 2: sd=None"),
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
    ], ids=["rep_share", "turnout", "sd"])
    def test_metrics_value_out_of_range(self, tmp_path, capsys, plan, ensemble, message):
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district," + plan)
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

    def test_did_cell(self, did_input, tmp_path, capsys):
        lines = open(did_input).read().splitlines(keepends=True)
        lines[3] = lines[3].replace(",", ",?", 1)
        bad = tmp_path / "did.csv"
        bad.write_text("".join(lines))
        assert main(["did", "--input", str(bad), "--output-draws", str(tmp_path / "d.csv"),
                     "--output-diagnostics", str(tmp_path / "d.json")]) == 1
        assert f"{bad}, line 4: dY0='?" in capsys.readouterr().err

    def test_non_finite_draw_exits_1(self, small_codebook, inputs, tmp_path, capsys):
        # A nan log_seats coefficient used to load with passing diagnostics.
        draws = random_draws(4, 1000, seed=4, decades=1)
        draws.coefficients[2, 500, COLUMN_NAMES.index("log_seats")] = float("nan")
        path = tmp_path / "nan.csv"
        save_draws_csv(draws, str(path), "# header\n")
        cov, base = inputs
        assert main(["counterfactual", "--template", "mi",
                     "--codebook", small_codebook, "--seat-model", str(path),
                     "--resp-model", str(path), "--covariates", cov,
                     "--baseline", base, "--draws", "2", "--seed", "3",
                     "--output", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        # two header lines, then chain 2's draw 500 after 2 x 1,000 rows
        assert str(path) in err and "line 2503: cell 'nan' is not finite" in err

    @pytest.mark.parametrize("covariates,baseline,message", [
        ("AL,0.39,1,1.95,0,1.2,0,seven\n", None, "line 2: n_districts='seven'"),
        (None, '{"dem_seats": 213.5}', "baseline is missing key 'slope_seats_per_pp'"),
        (None, '{"dem_seats": 213.5,', "not valid JSON"),
        (None, '[213.5, 7.8]', "numeric dem_seats"),
        (None, '{"dem_seats": "many", "slope_seats_per_pp": 7.8}', "numeric dem_seats"),
    ])
    def test_counterfactual_inputs(self, small_codebook, fitted_model, inputs, tmp_path,
                                   capsys, covariates, baseline, message):
        cov, base = inputs
        if covariates is not None:
            cov = tmp_path / "cov.csv"
            cov.write_text("state,dem08,south,log_seats,delta_seats,log_corrupt,"
                           "initiative,n_districts\n" + covariates)
        if baseline is not None:
            base = tmp_path / "base.json"
            base.write_text(baseline)
        assert main(["counterfactual", "--template", "mi",
                     "--codebook", small_codebook, "--seat-model", fitted_model,
                     "--resp-model", fitted_model, "--covariates", str(cov),
                     "--baseline", str(base), "--draws", "2", "--seed", "3",
                     "--output", str(tmp_path / "o.json")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["plans", "ensemble", "did", "covariates", "baseline"])
    def test_non_finite_number(self, small_codebook, did_input, fitted_model, inputs,
                               tmp_path, capsys, reader):
        cov, base = inputs
        bad = tmp_path / "bad"
        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share\nNH,2020,1,0.5\n")
        metrics_argv = ["metrics", "--output", str(tmp_path / "m.csv"), "--plans"]
        cf_argv = ["counterfactual", "--template", "mi", "--codebook", small_codebook,
                   "--seat-model", fitted_model, "--resp-model", fitted_model,
                   "--draws", "2", "--output", str(tmp_path / "o.json")]
        did_lines = open(did_input).read().splitlines(keepends=True)
        did_lines[3] = did_lines[3].replace(",0.0,", ",inf,", 1)  # dY0 is 0.0 on every row
        text, argv, message = {
            "plans": ("state,cycle,district,rep_share,turnout\nNH,2020,1,0.5,nan\n",
                      [*metrics_argv, str(bad)], "line 2: turnout='nan' is not finite"),
            "ensemble": ("state,cycle,metric,mean,sd\nNH,2020,competitive_share,0.2,nan\n",
                         [*metrics_argv, str(plans), "--ensemble", str(bad)],
                         "line 2: sd='nan' is not finite"),
            "did": ("".join(did_lines),
                    ["did", "--input", str(bad), "--output-draws", str(tmp_path / "d.csv"),
                     "--output-diagnostics", str(tmp_path / "d.json")],
                    "line 4: dY0='inf' is not finite"),
            "covariates": (open(cov).read().replace(",1.95,", ",-inf,"),
                           [*cf_argv, "--covariates", str(bad), "--baseline", base],
                           "line 2: log_seats='-inf' is not finite"),
            "baseline": ('{"dem_seats": NaN, "slope_seats_per_pp": 7.8}',
                         [*cf_argv, "--covariates", cov, "--baseline", str(bad)],
                         "dem_seats and slope_seats_per_pp must be finite"),
        }[reader]
        bad.write_text(text)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_nan_grid_step(self, small_codebook, tmp_path, capsys):
        assert main(["leeway", "--codebook", small_codebook, "--grid-step", "nan",
                     "--output", str(tmp_path / "l.csv")]) == 1
        assert "grid step nan out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"stale_slope": {"dist": "normal", "params": [0.1, 0.05]}}', "support"),
        ('{"stale_slope": {"dist": "beta"}}', "override must be"),
        ('{"stale_slope": ', "not valid JSON"),
    ])
    def test_prior_file(self, small_codebook, tmp_path, capsys, text, message):
        priors = tmp_path / "priors.json"
        priors.write_text(text)
        assert main(["leeway", "--codebook", small_codebook, "--draws", "2",
                     "--priors", str(priors), "--output", str(tmp_path / "l.csv")]) == 1
        err = capsys.readouterr().err
        assert str(priors) in err and message in err
