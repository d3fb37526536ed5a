"""Command-line pipeline: codebook, leeway, paths, metrics, did, counterfactual.

Every run is deterministic given its seed; output files
begin with a comment line carrying the package version, the seed, and a
hash of the run configuration. CSV inputs follow the canonical schemas of
the owning modules.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, codebook as cb, counterfactual as cf
from . import inference, metrics, solver
from .codebook import CodebookError
from .errors import DomainError, NotApplicable
from .inference import ConvergenceError, DidRow, PosteriorDraws
from .nature import PriorSpec
from .solver import OptimizationGrid


def _config_hash(args: argparse.Namespace) -> str:
    # Thread count and output destinations never change results, so they
    # stay out of the hash to keep reruns byte-identical.
    skip = {"output", "per_state", "doses_csv", "line_samples", "output_draws",
            "output_diagnostics", "emit_diagnostics", "func", "threads"}
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.md5(blob.encode()).hexdigest()[:12]


def _header_comment(args, seed) -> str:
    return f"# leeway v{__version__} seed={seed} config={_config_hash(args)}\n"


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path: str, header: str, columns, rows):
    """Write the header comment line, the column names and the rows as one CSV file."""
    out = io.StringIO()
    out.write(header)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _write_text(path, out.getvalue())


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_prior(path: str | None) -> PriorSpec:
    if path is None:
        return PriorSpec.default()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return PriorSpec.from_json(text)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def _read_table(path: str) -> tuple[list[str] | None, list[tuple[int, dict]]]:
    """The header of a CSV file and its records paired with their file lines.

    Lines starting with '#' are comments and are skipped.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        numbered = [(i, ln) for i, ln in enumerate(fh, 1) if not ln.startswith("#")]
    reader = csv.DictReader(ln for _, ln in numbered)
    fields = reader.fieldnames
    return fields, [(numbered[reader.line_num - 1][0], r) for r in reader]


def _cell(path: str, line: int, record: dict, key: str, kind=float, rule=None):
    """Convert one CSV cell, or raise DomainError naming its file and line.

    A float cell must be finite. ``rule`` is an optional (test, requirement)
    pair, such as ``_POSITIVE``, that the value must also pass.
    """
    try:
        value = kind(record[key])
    except (TypeError, ValueError):
        raise DomainError(f"{path}, line {line}: {key}={record[key]!r} is not "
                          f"a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise DomainError(f"{path}, line {line}: {key}={record[key]!r} is not finite")
    if rule is not None and not rule[0](value):
        raise DomainError(f"{path}, line {line}: {key}={record[key]!r} {rule[1]}")
    return value


_SHARE = (lambda v: 0.0 < v < 1.0, "must lie strictly inside (0, 1)")
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "must be nonnegative")


def _first_line(path: str, seen: dict, key: tuple, line: int, what: str):
    """Record the line of a key, or raise DomainError naming both lines of a repeat."""
    if key in seen:
        raise DomainError(f"{path}, lines {seen[key]} and {line}: duplicate {what} "
                          f"{','.join(map(str, key))}")
    seen[key] = line


def _grid(args) -> OptimizationGrid:
    return OptimizationGrid(step=args.grid_step)


# -- codebook ----------------------------------------------------------------

def _cmd_codebook(args) -> int:
    if args.validate:
        with open(args.input, "rb") as fh:
            issues = cb.lint_codebook(fh)
        if issues:
            for (state, cycle), message in issues:
                print(f"{state},{cycle}: {message}", file=sys.stderr)
            return 1
        print(f"{args.input}: ok")
        return 0
    with open(args.input, "rb") as fh:
        book = cb.parse_codebook(fh)
    print(f"parsed {len(book)} rows")
    if args.output:
        _write_text(args.output, _header_comment(args, "-") + cb.serialize_codebook(book))
    return 0


# -- leeway ------------------------------------------------------------------

def _cmd_leeway(args) -> int:
    with open(args.codebook, "rb") as fh:
        book = cb.parse_codebook(fh)
    prior = _load_prior(args.priors)
    rows, records = [], []
    for process, scores, solved in solver._scored_rows(book, prior, args.draws,
                                                       args.seed, _grid(args)):
        rows.append((process, scores))
        if args.emit_diagnostics:
            records.extend({
                "state": process.state_id, "cycle": process.cycle, "draw": i,
                "value": res.value, "path_probs": res.path_probs,
                "round2_proposal": res.round2_proposal,
                "veto_thresholds": res.veto_thresholds,
            } for i, res in enumerate(map(solved.result, range(solved.n_draws))))
    if args.format == "json":
        payload = {
            "meta": {"version": __version__, "seed": args.seed,
                     "config": _config_hash(args)},
            "rows": [{"state": p.state_id, "cycle": p.cycle,
                      "realized_leeway": s.realized, "maximum_leeway": s.maximum,
                      "n_draws": s.n_draws, "seed": args.seed}
                     for p, s in rows],
        }
        _write_text(args.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _write_csv(args.output, _header_comment(args, args.seed),
                   ["state", "cycle", "realized_leeway", "maximum_leeway", "n_draws", "seed"],
                   ([p.state_id, p.cycle, _fmt(s.realized), _fmt(s.maximum), s.n_draws,
                     args.seed] for p, s in rows))

    if args.emit_diagnostics:
        payload = {"meta": {"version": __version__, "seed": args.seed,
                            "config": _config_hash(args)},
                   "draws": records}
        _write_text(args.emit_diagnostics, json.dumps(payload, sort_keys=True) + "\n")
    return 0


# -- paths -------------------------------------------------------------------

def _cmd_paths(args) -> int:
    with open(args.codebook, "rb") as fh:
        book = cb.parse_codebook(fh)
    prior = _load_prior(args.priors)
    table = solver.path_table(book, prior, n_draws=args.draws, seed=args.seed,
                              grid=_grid(args))
    cross = table.cross_tab()
    buckets = solver._BUCKETS
    header = _header_comment(args, args.seed)

    rows = [[r, *(cross[r][c] for c in buckets)] for r in buckets]
    rows.append(["total", *(sum(cross[r][c] for r in buckets) for c in buckets)])
    _write_csv(args.output, header, ["final_drawer", *buckets, "total"],
               ([label, *map(_fmt, cells), _fmt(sum(cells))] for label, *cells in rows))
    if args.per_state:
        _write_csv(args.per_state, header,
                   ["state", "cycle", *(f"p_{b}" for b in buckets), "modal", "actual"],
                   ([*key, *(_fmt(probs[b]) for b in buckets), table.modal(key),
                     table.actual[key]] for key, probs in table.state_probs.items()))
    return 0


# -- metrics -----------------------------------------------------------------

def _read_plans(path: str) -> list[tuple[tuple[str, int], metrics.PlanProfile]]:
    groups: dict[tuple[str, int], list[tuple[float, float | None]]] = {}
    fields, records = _read_table(path)
    expected = {"state", "cycle", "district", "rep_share"}
    if fields is None or not expected.issubset(fields):
        raise DomainError(f"{path}: plan file must have columns {sorted(expected)}")
    has_turnout = "turnout" in fields
    seen: dict = {}
    for line, record in records:
        key = (record["state"], _cell(path, line, record, "cycle", int))
        _first_line(path, seen, (*key, record["district"]), line, "district")
        turnout = (_cell(path, line, record, "turnout", rule=_POSITIVE)
                   if has_turnout and record["turnout"] else None)
        groups.setdefault(key, []).append(
            (_cell(path, line, record, "rep_share", rule=_SHARE), turnout))
    plans = []
    for key, cells in groups.items():
        shares = tuple(s for s, _ in cells)
        turnouts = tuple(t for _, t in cells)
        weights = turnouts if all(t is not None for t in turnouts) else None
        plans.append((key, metrics.PlanProfile(shares, weights)))
    return plans


def _read_ensemble(path: str) -> dict:
    table, seen = {}, {}
    fields, records = _read_table(path)
    expected = {"state", "cycle", "metric", "mean", "sd"}
    if fields is None or not expected.issubset(fields):
        raise DomainError(f"{path}: ensemble file must have columns {sorted(expected)}")
    for line, record in records:
        key = (record["state"], _cell(path, line, record, "cycle", int), record["metric"])
        _first_line(path, seen, key, line, "metric")
        table[key] = metrics.EnsembleSummary(
            _cell(path, line, record, "mean"),
            _cell(path, line, record, "sd", rule=_NONNEGATIVE))
    return table


def _cmd_metrics(args) -> int:
    if args.sigma_national or args.sigma_district:
        model = metrics.SwingModel(args.sigma_national, args.sigma_district)
    else:
        model = metrics.SwingModel.calibrated()
    plans = _read_plans(args.plans)
    ensemble = _read_ensemble(args.ensemble) if args.ensemble else {}

    rows = []
    for (state, cycle), plan in plans:
        baseline_vote = float(np.average(plan.shares, weights=plan.weights))
        values = {
            "expected_seats": metrics.expected_seats(plan, model),
            "responsiveness": metrics.responsiveness(plan, model),
            "competitive_share": metrics.competitive_share(plan, model),
            "efficiency_gap": metrics.efficiency_gap(plan),
            "partisan_bias": metrics.partisan_bias(plan, model, baseline_vote),
            "dilution_asymmetry": metrics.dilution_asymmetry(plan),
        }
        for name, value in values.items():
            rows.append([state, cycle, name, _fmt(value)])
            summary = ensemble.get((state, cycle, name))
            if summary is not None:
                adjusted = metrics.simulation_adjust(value, summary)
                rows.append([state, cycle, f"{name}_sim_diff", _fmt(adjusted.difference)])
                rows.append([state, cycle, f"{name}_abs_sim_diff",
                             _fmt(adjusted.abs_difference)])
                if adjusted.z_score is not None:
                    rows.append([state, cycle, f"{name}_sim_z", _fmt(adjusted.z_score)])
                    rows.append([state, cycle, f"{name}_abs_sim_z", _fmt(adjusted.abs_z)])
    _write_csv(args.output, _header_comment(args, "-"), ["state", "cycle", "metric", "value"],
               rows)
    return 0


# -- did ---------------------------------------------------------------------

_DID_COLUMNS = ("state", "dY0", "dY1", "d0", "d1", "dem08", "south", "log_seats",
                "delta_seats", "log_corrupt", "initiative")


def read_did_rows(path: str) -> list[DidRow]:
    fields, records = _read_table(path)
    if fields is None or tuple(fields) != _DID_COLUMNS:
        raise DomainError(f"{path}: did input must have columns {','.join(_DID_COLUMNS)}")
    return [DidRow(r["state"], *(_cell(path, line, r, c) for c in _DID_COLUMNS[1:]))
            for line, r in records]


# Rows per write in save_draws_csv: large enough to amortize the write
# call, small enough that the file never sits in memory as one string.
_WRITE_CHUNK_ROWS = 2000


def save_draws_csv(draws: PosteriorDraws, path: str, header: str = ""):
    """Write draws chain-major, one row per draw, floats as ``repr``."""
    chains, n, _ = draws.coefficients.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        fh.write(",".join(["chain", "draw", *draws.column_names, "sigma"]) + "\n")
        for c in range(chains):
            rows = np.column_stack([draws.coefficients[c], draws.sigma[c]]).tolist()
            for start in range(0, n, _WRITE_CHUNK_ROWS):
                fh.write("".join(
                    f"{c},{t},{','.join(map(repr, row))}\n"
                    for t, row in enumerate(rows[start:start + _WRITE_CHUNK_ROWS], start)))


def load_draws_csv(path: str) -> PosteriorDraws:
    """Rebuild PosteriorDraws from a saved draw file (diagnostics recomputed).

    Rows may come in any order; each chain keeps its rows in file order.
    Raises DomainError naming the file for a malformed header, a bad row,
    a bad chain id, a non-finite cell, chains of unequal length or fewer
    than 4 draws per chain.
    """
    expected = ["chain", "draw", *inference.COLUMN_NAMES, "sigma"]
    with open(path, encoding="utf-8", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        if next(csv.reader([line]), None) != expected:
            raise DomainError(f"{path}: draws file does not match the model's column layout")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError:
            raise DomainError(f"{path}: {_bad_draw_row(path, len(expected))}") from None
    if data.size == 0:
        raise DomainError(f"{path}: draws file has a header but no draw rows")
    if data.shape[1] != len(expected):
        raise DomainError(f"{path}: draw rows have {data.shape[1]} cells, "
                          f"expected {len(expected)}")
    chain = data[:, 0]
    bad = ~(np.isfinite(chain) & (chain >= 0) & (chain == np.floor(chain)))
    if bad.any():
        raise DomainError(f"{path}: chain id {chain[bad][0]!r} is not a "
                          "non-negative integer")
    if not np.isfinite(data).all():
        raise DomainError(f"{path}: {_bad_draw_row(path, len(expected))}")
    ids, counts = np.unique(chain, return_counts=True)
    if np.any(counts != counts[0]):
        lengths = ", ".join(f"chain {int(i)}: {k}" for i, k in zip(ids, counts))
        raise DomainError(f"{path}: chains have unequal lengths ({lengths} draws)")
    if counts[0] < 4:
        raise DomainError(f"{path}: {counts[0]} draws per chain; split R-hat "
                          "needs at least 4")
    order = np.argsort(chain, kind="stable")
    data = data[order, 2:].reshape(len(ids), counts[0], len(expected) - 2)
    coefficients = data[:, :, :-1]
    sigma = data[:, :, -1]
    return PosteriorDraws(coefficients=coefficients, sigma=sigma,
                          column_names=inference.COLUMN_NAMES,
                          diagnostics=inference._diagnostics(coefficients, sigma))


def _bad_draw_row(path: str, width: int) -> str:
    """Name the first draw row with a cell that is missing, not a number or not finite."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [(i, ln.split("#")[0].strip()) for i, ln in enumerate(fh, 1)
                 if not ln.startswith("#")]
    for lineno, text in lines[1:]:
        if not text:
            continue
        cells = text.split(",")
        if len(cells) != width:
            return f"line {lineno}: {len(cells)} cells, expected {width}"
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                return f"line {lineno}: cell {cell!r} is not a number"
            if not math.isfinite(value):
                return f"line {lineno}: cell {cell!r} is not finite"
    return "draw rows could not be parsed"


def _cmd_did(args) -> int:
    rows = read_did_rows(args.input)
    design = inference.build_design(rows)
    prior = inference.PriorConfig.from_design(design, sigma_y=args.sigma_y)
    try:
        draws = inference.fit_posterior(design, prior, n_draws=args.draws,
                                        n_chains=args.chains, seed=args.seed)
    except ConvergenceError as exc:
        _write_did_diagnostics(args, exc.diagnostics, None)
        raise
    save_draws_csv(draws, args.output_draws, _header_comment(args, args.seed))
    est = inference.acr(draws, rows)
    diag = draws.diagnostics
    _write_did_diagnostics(args, diag, {
        "mean": est.effect.mean, "ci80": list(est.effect.ci80),
        "ci95": list(est.effect.ci95), "standardized_mean": est.standardized.mean})
    print(f"fit ok: max rhat {max(diag.rhat.values()):.4f}, "
          f"min ess {min(diag.ess.values()):.0f}")
    return 0


def _write_did_diagnostics(args, diag, acr) -> None:
    """Write the sampler diagnostics; ``acr`` is None for a fit that failed them."""
    payload = {
        "meta": {"version": __version__, "seed": args.seed,
                 "config": _config_hash(args), "outcome_label": args.outcome_label},
        "rhat": diag.rhat, "ess": diag.ess,
        "accept_coefficients": list(diag.accept_coefficients),
        "accept_sigma": list(diag.accept_sigma),
        "acr": acr,
    }
    _write_text(args.output_diagnostics, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- counterfactual ----------------------------------------------------------

def _read_covariates(path: str) -> dict:
    expected = ("state", "dem08", "south", "log_seats", "delta_seats",
                "log_corrupt", "initiative", "n_districts")
    fields, records = _read_table(path)
    if fields is None or tuple(fields) != expected:
        raise DomainError(f"{path}: covariates file must have columns {','.join(expected)}")
    return {r["state"]: cf.StateCovariates(
                *(_cell(path, line, r, c) for c in expected[1:-1]),
                n_districts=_cell(path, line, r, "n_districts", int))
            for line, r in records}


def _read_baseline(path: str) -> cf.Baseline:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
        baseline = cf.Baseline(dem_seats=float(raw["dem_seats"]),
                               slope_seats_per_pp=float(raw["slope_seats_per_pp"]))
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: not valid JSON ({exc})") from None
    except KeyError as exc:
        raise DomainError(f"{path}: baseline is missing key {exc}") from None
    except (TypeError, ValueError):
        raise DomainError(f"{path}: baseline must be an object with numeric "
                          "dem_seats and slope_seats_per_pp") from None
    if not (math.isfinite(baseline.dem_seats) and math.isfinite(baseline.slope_seats_per_pp)):
        raise DomainError(f"{path}: baseline dem_seats and slope_seats_per_pp must be finite")
    return baseline


def _cmd_counterfactual(args) -> int:
    with open(args.codebook, "rb") as fh:
        book = cb.parse_codebook(fh)
    prior = _load_prior(args.priors)
    template = cf.TEMPLATES[args.template]()
    seat_model = load_draws_csv(args.seat_model)
    resp_model = load_draws_csv(args.resp_model)
    for label, model in (("seat", seat_model), ("responsiveness", resp_model)):
        if not model.diagnostics.passes():
            raise ConvergenceError(f"{label} model draws fail convergence thresholds",
                                   model.diagnostics)
    covariates = _read_covariates(args.covariates)
    baseline = _read_baseline(args.baseline)

    pairs = cf.counterfactual_doses(book, template, prior, n_draws=args.draws,
                                    seed=args.seed, grid=_grid(args))
    prediction = cf.predict_national(pairs, seat_model, resp_model, covariates, baseline,
                                     template=args.template)

    def summary(effect):
        return {"mean": effect.mean, "ci80": list(effect.ci80), "ci95": list(effect.ci95)}

    payload = {
        "meta": {"version": __version__, "seed": args.seed,
                 "config": _config_hash(args), "template": args.template},
        "total_dem_seat_change": summary(prediction.total_dem_seat_change),
        "responsiveness_slope": summary(prediction.responsiveness_slope),
        "seats_votes_line": {"intercept_seats": prediction.seats_votes_line[0],
                             "slope_seats_per_pp": prediction.seats_votes_line[1]},
    }
    _write_text(args.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    header = _header_comment(args, args.seed)
    if args.doses_csv:
        _write_csv(args.doses_csv, header,
                   ["state", "d_current", "d_reformed", "seat_effect_mean"],
                   ([p.state_id, _fmt(p.d_current), _fmt(p.d_reformed),
                     _fmt(prediction.state_seat_effects[p.state_id].mean)] for p in pairs))
    if args.line_samples:
        intercepts = baseline.dem_seats + prediction.seat_change_draws
        _write_csv(args.line_samples, header, ["draw", "intercept_seats", "slope_seats_per_pp"],
                   ([i, _fmt(icpt), _fmt(slope)]
                    for i, (icpt, slope) in enumerate(zip(intercepts, prediction.slope_draws))))
    return 0


# -- parser ------------------------------------------------------------------

def _add_common_solver_args(p):
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--priors", help="JSON file of prior overrides")
    p.add_argument("--threads", type=int, default=0,
                   help="accepted for compatibility; all draws are solved in one vectorized "
                        "pass, so neither results nor run time depend on it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leeway",
        description="Redistricting-process game solver and reform analysis pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="parse or validate a codebook CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--validate", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("leeway", help="solve the game and write leeway scores")
    p.add_argument("--codebook", required=True)
    _add_common_solver_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--emit-diagnostics", help="write per state-draw solver JSON here")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_leeway)

    p = sub.add_parser("paths", help="final-drawer path cross-tab")
    p.add_argument("--codebook", required=True)
    _add_common_solver_args(p)
    p.add_argument("--per-state", help="also write per-state path probabilities")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("metrics", help="plan outcome metrics under the swing model")
    p.add_argument("--plans", required=True)
    p.add_argument("--ensemble", help="simulation ensemble summaries for adjustment")
    p.add_argument("--sigma-national", type=float, default=0.0)
    p.add_argument("--sigma-district", type=float, default=0.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("did", help="fit the dose-response outcome model")
    p.add_argument("--input", required=True)
    p.add_argument("--draws", type=int, default=10000)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-y", type=float, default=None,
                   help="override the response sd used for prior scales")
    p.add_argument("--outcome-label", default="outcome")
    p.add_argument("--output-draws", required=True)
    p.add_argument("--output-diagnostics", required=True)
    p.set_defaults(func=_cmd_did)

    p = sub.add_parser("counterfactual", help="nationwide reform prediction")
    p.add_argument("--template", choices=sorted(cf.TEMPLATES), required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--seat-model", required=True)
    p.add_argument("--resp-model", required=True)
    p.add_argument("--covariates", required=True)
    p.add_argument("--baseline", required=True)
    _add_common_solver_args(p)
    p.add_argument("--output", required=True)
    p.add_argument("--doses-csv")
    p.add_argument("--line-samples")
    p.set_defaults(func=_cmd_counterfactual)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CodebookError, DomainError, NotApplicable, cf.TemplateError,
            ConvergenceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
