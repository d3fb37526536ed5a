"""Command-line pipeline: codebook, leeway, paths, metrics, did, counterfactual.

Every run is deterministic given its seed; output files
begin with a comment line carrying the package version, the seed, and a
hash of the run configuration. CSV inputs follow the canonical schemas of
the owning modules.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import sys
import threading
import traceback
import warnings
from pathlib import Path

import numpy as np

from . import __version__, codebook as cb, counterfactual as cf
from . import inference, metrics, solver
from .codebook import first_line, read_table
from .errors import DomainError, NotApplicable
from .inference import ConvergenceError, DidRow, PosteriorDraws
from .nature import PriorSpec
from .solver import OptimizationGrid


# The argparse names of every flag that names an output file, and of every
# flag that names an input file.
_OUTPUTS = ("output", "emit_diagnostics", "per_state", "output_draws", "output_diagnostics",
            "doses_csv", "line_samples")
_INPUTS = ("input", "codebook", "priors", "plans", "ensemble", "seat_model", "resp_model",
           "covariates", "baseline")


def _config_hash(args: argparse.Namespace) -> str:
    # Thread count and output destinations never change results, so they
    # stay out of the hash to keep reruns byte-identical.
    skip = {*_OUTPUTS, "func", "threads"}
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.md5(blob.encode()).hexdigest()[:12]


def _meta(args, seed) -> dict:
    """The package version, seed and configuration hash that every output records."""
    return {"version": __version__, "seed": seed, "config": _config_hash(args)}


def _header_comment(args, seed) -> str:
    return "# leeway v{version} seed={seed} config={config}\n".format(**_meta(args, seed))


def _write(path: str, chunks) -> None:
    """Write the bytes ``chunks`` to ``path``: the one place an output file is opened.

    The file appears whole or not at all. The chunks go to a new sibling
    file, which replaces the target only once the last chunk is written; on
    any exception the sibling is removed and the exception re-raised, so an
    existing output keeps its bytes. The target is ``path`` with symlinks
    resolved, so a link stays a link. An existing target that is not a
    regular file, such as a FIFO or /dev/stdout, is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:  # a new file, with the umask's permissions as open(path, "wb") gives
        fh = open(tmp, "xb")
    except OSError as exc:
        exc.filename = path  # the error names the output, not its sibling
        raise
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict):
    """Write ``payload`` as JSON with sorted keys; a NaN or an infinity is a bug: ValueError."""
    _write(path, [json.dumps(payload, sort_keys=True, indent=2, allow_nan=False).encode() + b"\n"])


def _write_csv(path: str, header: str, columns, rows):
    """Write the header comment line, the column names and the rows as one CSV file."""
    out = io.StringIO()
    out.write(header)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _write(path, [out.getvalue().encode()])


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_prior(path: str | None) -> PriorSpec:
    if path is None:
        return PriorSpec.default()
    try:
        return PriorSpec.from_json(Path(path).read_text(encoding="utf-8-sig"))
    except (DomainError, UnicodeDecodeError) as exc:
        raise DomainError(f"{path}: {exc}") from None


def _cell(path: str, line: int, record: dict, key: str, kind=float, rule=None):
    """Convert one CSV cell, or raise DomainError naming its file and line.

    A number is written as ``np.loadtxt`` reads one: ASCII inside its
    whitespace and no '_', which ``int`` and ``float`` would accept. A float
    cell must be finite. ``rule`` is an optional (test, requirement) pair,
    such as ``_POSITIVE``, that the value must also pass.
    """
    text = record[key]
    try:
        if "_" in text or not text.strip().isascii():
            raise ValueError(text)
        value = kind(text)
    except ValueError:
        raise DomainError(f"{path}, line {line}: {key}={text!r} is not "
                          f"a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise DomainError(f"{path}, line {line}: {key}={text!r} is not finite")
    if rule is not None and not rule[0](value):
        raise DomainError(f"{path}, line {line}: {key}={text!r} {rule[1]}")
    return value


_SHARE = (lambda v: 0.0 < v < 1.0, "must lie strictly inside (0, 1)")
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "must be nonnegative")


def _batch(args, prior: PriorSpec) -> solver.BatchContext:
    """The run's prior draws on its grid; a bad grid step is reported before a bad draw count."""
    grid = OptimizationGrid(step=args.grid_step)
    return solver.BatchContext(solver.sample_draws(prior, args.seed, args.draws), grid)


# -- codebook ----------------------------------------------------------------

def _cmd_codebook(args) -> int:
    if args.validate:
        issues = cb.lint_codebook(Path(args.input))
        if issues:
            for (state, cycle), message, where in issues:
                print(f"{where}: {state},{cycle}: {message}", file=sys.stderr)
            return 1
        print(f"{args.input}: ok")
        return 0
    book = cb.parse_codebook(Path(args.input))
    print(f"parsed {len(book)} rows")
    if args.output:
        _write(args.output, [(_header_comment(args, "-") + cb.serialize_codebook(book)).encode()])
    return 0


# -- leeway ------------------------------------------------------------------

_SCORE_COLUMNS = ("state", "cycle", "realized_leeway", "maximum_leeway", "n_draws", "seed")


def _json_object(keys: tuple) -> str:
    """A ``str.format`` template of a JSON object of these keys, sorted; {i} is keys[i]'s value."""
    return "{{" + ", ".join(f'"{keys[i]}": {{{i}}}' for i in sorted(
        range(len(keys)), key=keys.__getitem__)) + "}}"


_PATH_PROBS = _json_object(solver._BUCKETS)
_VETO_THRESHOLDS = _json_object(solver._THRESHOLD_KEYS)


def _json_floats(array: np.ndarray, nan_as_null: bool = False) -> list:
    """The floats of a 1-D array, or of each row of a 2-D one, as json writes them.

    One ``tolist``, then ``repr`` per float. With ``nan_as_null`` a NaN is
    written as null; any other non-finite float raises ValueError, as
    ``allow_nan=False`` does.
    """
    if not np.isfinite(array).all() and (not nan_as_null or np.isinf(array).any()):
        raise ValueError("Out of range float values are not JSON compliant")
    text = (lambda x: repr(x) if x == x else "null") if nan_as_null else repr
    rows = array.tolist()
    return [[*map(text, row)] for row in rows] if array.ndim == 2 else [*map(text, rows)]


def _diagnostic_fields(tree) -> list[tuple[str, str]]:
    """The JSON text of a solved tree's fields in each draw's diagnostics record.

    A record, its keys sorted as ``json.dumps(sort_keys=True)`` writes them,
    is '{"cycle": C, "draw": ' + head + state + tail: head runs from the
    draw index to the "state" key, and tail from the "value" key to the end.
    NaN proposals and thresholds are null and a drawer stalemate is
    "stalemate"; a non-finite value or path probability raises ValueError.
    """
    stalemate = json.dumps(solver.STALEMATE)
    round2 = [stalemate if stale else x for stale, x in zip(
        tree.stalemates.tolist(), _json_floats(tree.round2_proposal, nan_as_null=True))]
    return [(f'{d}, "path_probs": {_PATH_PROBS.format(*paths)}, '
             f'"round2_proposal": {proposal}, "state": ',
             f', "value": {value}, "veto_thresholds": {_VETO_THRESHOLDS.format(*vetoes)}}}')
            for d, (value, paths, proposal, vetoes) in enumerate(zip(
                _json_floats(tree.values), _json_floats(tree.path_probs), round2,
                _json_floats(tree.veto_thresholds, nan_as_null=True)))]


def _cmd_leeway(args) -> int:
    book = cb.parse_codebook(Path(args.codebook))
    prior = _load_prior(args.priors)
    scored, records, fields = [], [], {}
    for process, scores, solved in solver._scored_rows(book, _batch(args, prior)):
        scored.append(dict(zip(_SCORE_COLUMNS, (process.state_id, process.cycle, scores.realized,
                                                scores.maximum, scores.n_draws, args.seed))))
        if args.emit_diagnostics:
            if solved.key not in fields:  # rows that share a tree share its text
                fields[solved.key] = _diagnostic_fields(solved)
            cycle, state = json.dumps(process.cycle), json.dumps(process.state_id)
            records.extend(f'{{"cycle": {cycle}, "draw": {head}{state}{tail}'
                           for head, tail in fields[solved.key])
    if args.format == "json":
        _write_json(args.output, {"meta": _meta(args, args.seed), "rows": scored})
    else:  # csv.writer writes a float with repr, as _fmt does
        _write_csv(args.output, _header_comment(args, args.seed), _SCORE_COLUMNS,
                   (row.values() for row in scored))

    if args.emit_diagnostics:  # as json.dumps(sort_keys=True) writes {"draws", "meta"}
        meta = json.dumps(_meta(args, args.seed), sort_keys=True)
        _write(args.emit_diagnostics,
               [f'{{"draws": [{", ".join(records)}], "meta": {meta}}}\n'.encode()])
    return 0


# -- paths -------------------------------------------------------------------

def _cmd_paths(args) -> int:
    book = cb.parse_codebook(Path(args.codebook))
    prior = _load_prior(args.priors)
    table = solver.path_table(book, _batch(args, prior))
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
    groups: dict[tuple[str, int], list[tuple[float, float | None, int]]] = {}
    _, fields, records = read_table(path)
    expected = {"state", "cycle", "district", "rep_share"}
    if not expected.issubset(fields):
        raise DomainError(f"{path}: plan file must have columns {sorted(expected)}")
    has_turnout = "turnout" in fields
    seen: dict = {}
    for line, record in records:
        key = (record["state"], _cell(path, line, record, "cycle", int))
        first_line(path, seen, (*key, record["district"]), line, "district")
        turnout = (_cell(path, line, record, "turnout", rule=_POSITIVE)
                   if has_turnout and record["turnout"] else None)
        groups.setdefault(key, []).append(
            (_cell(path, line, record, "rep_share", rule=_SHARE), turnout, line))
    plans = []
    for key, cells in groups.items():
        shares, turnouts, lines = zip(*cells)
        blank = [line for t, line in zip(turnouts, lines) if t is None]
        if blank and len(blank) < len(cells):
            raise DomainError(f"{path}, line {blank[0]}: turnout is blank, but other districts "
                              f"of {key[0]},{key[1]} have one")
        try:
            plans.append((key, metrics.PlanProfile(shares, None if blank else turnouts)))
        except DomainError as exc:
            raise DomainError(f"{path}, line {lines[0]}: {key[0]},{key[1]}: {exc}") from None
    return plans


def _read_ensemble(path: str) -> dict:
    table, seen = {}, {}
    _, fields, records = read_table(path)
    expected = {"state", "cycle", "metric", "mean", "sd"}
    if not expected.issubset(fields):
        raise DomainError(f"{path}: ensemble file must have columns {sorted(expected)}")
    for line, record in records:
        key = (record["state"], _cell(path, line, record, "cycle", int), record["metric"])
        first_line(path, seen, key, line, "metric")
        table[key] = line, metrics.EnsembleSummary(
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
            _, summary = ensemble.pop((state, cycle, name), (None, None))
            if summary is not None:
                adjusted = metrics.simulation_adjust(value, summary)
                rows.append([state, cycle, f"{name}_sim_diff", _fmt(adjusted.difference)])
                rows.append([state, cycle, f"{name}_abs_sim_diff",
                             _fmt(adjusted.abs_difference)])
                if adjusted.z_score is not None:
                    rows.append([state, cycle, f"{name}_sim_z", _fmt(adjusted.z_score)])
                    rows.append([state, cycle, f"{name}_abs_sim_z", _fmt(adjusted.abs_z)])
    if ensemble:  # the rows left matched no plan's metric, so they adjusted nothing
        (state, cycle, name), (line, _) = next(iter(ensemble.items()))
        raise DomainError(f"{args.ensemble}, line {line}: {state},{cycle},{name} "
                          "matches no plan's metric")
    _write_csv(args.output, _header_comment(args, "-"), ["state", "cycle", "metric", "value"],
               rows)
    return 0


# -- did ---------------------------------------------------------------------

_DID_COLUMNS = ("state", "dY0", "dY1", "d0", "d1", *inference.COVARIATE_NAMES)


def read_did_rows(path: str) -> list[DidRow]:
    _, fields, records = read_table(path)
    if tuple(fields) != _DID_COLUMNS:
        raise DomainError(f"{path}: did input must have columns {','.join(_DID_COLUMNS)}")
    rows, seen = [], {}
    for line, r in records:
        first_line(path, seen, (r["state"],), line, "state")
        rows.append(DidRow(r["state"], *(_cell(path, line, r, c) for c in _DID_COLUMNS[1:])))
    return rows


# Rows per piece of draw-file text: large enough to amortize the write
# call, small enough that this process never holds its half of the file as
# one string. The forked child's half is buffered in the child.
_WRITE_CHUNK_ROWS = 2000

# Bytes per read from a forked child's pipe.
_PIPE_CHUNK = 1 << 20

# The draw-file header: the model's coefficient columns and sigma, per draw.
_DRAW_COLUMNS = ("chain", "draw", *inference.COLUMN_NAMES, "sigma")


class _Forked:
    """``fn()``, which returns bytes, run in a forked child beside this process.

    Draw-file text is parsed and formatted under the GIL, so a second process
    is the only way onto a second core. ``with _Forked(path, fn) as child``
    forks; iterating over ``child`` yields the child's bytes in 1 MB chunks,
    or raises the child's exception with its type and message. Leaving the
    block reaps the child on every path; leaving it by an exception kills the
    child first, since nothing will read it. Where ``os.fork`` does not exist or
    fails, or another thread is running (the child would inherit the locks
    it holds), ``fn`` runs inline when its bytes are read. ``path`` names the
    draw file in the error raised when the child ends without a result.
    """

    def __init__(self, path: str, fn):
        self.path, self.fn = path, fn
        self.pid = self.pipe = None

    def __enter__(self):
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return self
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return self
        if self.pid == 0:
            os.close(read)
            self._child(write)
        os.close(write)
        self.pipe = open(read, "rb")
        return self

    def _child(self, fd: int):
        """Send b"R" and fn's bytes, or b"E" and its pickled exception; never return."""
        status = 1
        try:
            with open(fd, "wb") as out:
                try:
                    payload = self.fn()
                except BaseException as exc:
                    out.write(b"E" + pickle.dumps(exc))
                else:
                    out.write(b"R")
                    out.write(payload)
            status = 0
        finally:
            os._exit(status)

    def __iter__(self):
        if self.pipe is None:
            yield self.fn()
            return
        kind = self.pipe.read(1)
        if kind == b"E":
            try:
                exc = pickle.loads(self.pipe.read())
            except Exception:
                exc = None
            if isinstance(exc, BaseException):
                raise exc
        elif kind == b"R":
            yield from iter(lambda: self.pipe.read(_PIPE_CHUNK), b"")
            if self._reap() == 0:
                return
        raise RuntimeError(f"{self.path}: the child process for this draw file "
                           "ended without a result")

    def _reap(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def __exit__(self, exc_type, *_):
        # Once the pipe is closed, a child that is still writing gets EPIPE and
        # exits, so the wait ends when the child's own work does.
        if self.pipe is not None:
            self.pipe.close()
        if self.pid is not None:
            if exc_type is not None:
                import signal  # here, so that a run that kills no child does not import it
                os.kill(self.pid, signal.SIGKILL)
            self._reap()


def _draw_rows(draws: PosteriorDraws, start: int, stop: int):
    """Bytes of the chain-major draw rows ``start`` to ``stop - 1``, a piece at a time."""
    n = draws.sigma.shape[1]
    while start < stop:
        c, t = divmod(start, n)
        k = min(stop - start, n - t, _WRITE_CHUNK_ROWS)
        rows = np.column_stack([draws.coefficients[c, t:t + k],
                                draws.sigma[c, t:t + k]]).tolist()
        yield "".join(f"{c},{i},{','.join(map(repr, row))}\n"
                      for i, row in enumerate(rows, t)).encode()
        start += k


def save_draws_csv(draws: PosteriorDraws, path: str, header: str = ""):
    """Write draws chain-major, one row per draw, floats as ``repr``.

    A forked child formats the second half of the rows while this process
    writes the first.
    """
    total = draws.sigma.size
    half = total // 2
    with _Forked(path, lambda: b"".join(_draw_rows(draws, half, total))) as tail:
        _write(path, itertools.chain([(header + ",".join(_DRAW_COLUMNS) + "\n").encode()],
                                     _draw_rows(draws, 0, half), tail))


def load_draws_csv(path: str) -> PosteriorDraws:
    """Rebuild PosteriorDraws from a saved draw file (diagnostics recomputed).

    Rows may come in any order; each chain keeps its rows in file order.
    The file follows ``read_table``'s rules. Raises DomainError naming the
    file for a malformed header, a bad chain id, chains of unequal length or
    fewer than 4 draws per chain, and naming the line, as every table input
    does, for a row that is not one number per column or a non-finite cell.
    """
    width = len(_DRAW_COLUMNS)
    skiprows, header = read_table(path)[:2]  # read up to the header only
    if tuple(header) != _DRAW_COLUMNS:
        raise DomainError(f"{path}: draws file does not match the model's column layout")
    # Given a path, numpy parses the rows in chunks in C; given the open
    # handle, it would take them one line at a time in Python.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            data = np.loadtxt(path, delimiter=",", comments=None, quotechar='"',
                              skiprows=skiprows, ndmin=2, encoding="utf-8")
    except ValueError:  # a UnicodeDecodeError too
        raise _bad_row(path) from None
    if data.size == 0:
        raise DomainError(f"{path}: draws file has a header but no draw rows")
    if data.shape[1] != width:
        raise _bad_row(path)
    chain = data[:, 0]
    bad = ~(np.isfinite(chain) & (chain >= 0) & (chain == np.floor(chain)))
    if bad.any():
        raise DomainError(f"{path}: chain id {chain[bad][0]!r} is not a "
                          "non-negative integer")
    if not np.isfinite(data).all():
        raise _bad_row(path)
    ids, counts = np.unique(chain, return_counts=True)
    if np.any(counts != counts[0]):
        lengths = ", ".join(f"chain {int(i)}: {k}" for i, k in zip(ids, counts))
        raise DomainError(f"{path}: chains have unequal lengths ({lengths} draws)")
    if counts[0] < 4:
        raise DomainError(f"{path}: {counts[0]} draws per chain; split R-hat "
                          "needs at least 4")
    order = np.argsort(chain, kind="stable")
    data = data[order, 2:].reshape(len(ids), counts[0], width - 2)
    coefficients = data[:, :, :-1]
    sigma = data[:, :, -1]
    with np.errstate(over="ignore", invalid="ignore"):  # a draw near 1e308: NaN fails the gate
        diagnostics = inference._diagnostics(coefficients, sigma)
    return PosteriorDraws(coefficients=coefficients, sigma=sigma, diagnostics=diagnostics)


def _bad_row(path: str) -> DomainError:
    """The error of the first draw row that ``read_table`` or ``_cell`` rejects."""
    for line, record in read_table(path)[2]:
        for column in _DRAW_COLUMNS:
            _cell(path, line, record, column)
    return DomainError(f"{path}: draw rows could not be parsed")


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
        "meta": {**_meta(args, args.seed), "outcome_label": args.outcome_label},
        "rhat": diag.rhat, "ess": diag.ess,
        "acr": acr,
    }
    _write_json(args.output_diagnostics, payload)


# -- counterfactual ----------------------------------------------------------

def _read_covariates(path: str) -> dict:
    expected = ("state", *inference.COVARIATE_NAMES, "n_districts")
    _, fields, records = read_table(path)
    if tuple(fields) != expected:
        raise DomainError(f"{path}: covariates file must have columns {','.join(expected)}")
    table, seen = {}, {}
    for line, r in records:
        first_line(path, seen, (r["state"],), line, "state")
        table[r["state"]] = cf.StateCovariates(
            *(_cell(path, line, r, c) for c in expected[1:-1]),
            n_districts=_cell(path, line, r, "n_districts", int, rule=_POSITIVE))
    return table


def _read_baseline(path: str) -> cf.Baseline:
    """The baseline JSON object; each key must hold a finite JSON number, not a bool or string."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # also non-UTF-8, a huge integer or deep nesting
        raise DomainError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DomainError(f"{path}: baseline must be an object with numeric "
                          "dem_seats and slope_seats_per_pp")
    numbers = []
    for key in ("dem_seats", "slope_seats_per_pp"):
        if key not in raw:
            raise DomainError(f"{path}: baseline is missing key '{key}'")
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DomainError(f"{path}: baseline needs numeric {key}, got {json.dumps(value)}")
        if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int beyond floats
            raise DomainError(f"{path}: baseline dem_seats and slope_seats_per_pp must be "
                              f"finite, got {key}={json.dumps(value)}")
        numbers.append(float(value))
    return cf.Baseline(*numbers)


def _cmd_counterfactual(args) -> int:
    book = cb.parse_codebook(Path(args.codebook))
    prior = _load_prior(args.priors)
    template = cf.TEMPLATES[args.template]
    covariates = _read_covariates(args.covariates)
    baseline = _read_baseline(args.baseline)
    # Sampled and solved before the draw files are read, while the heap is
    # small: numpy keeps some of the solver's small blocks for reuse after
    # the call, and above the draw files' memory they would stop the
    # allocator from returning it when this call ends. No name holds the
    # batch, so its trees are freed when the call returns.
    pairs = cf.counterfactual_doses(book, template, _batch(args, prior))
    if not pairs:
        raise DomainError(f"{args.codebook}: no {cf.REFORM_CYCLE} row has a redistricting game")
    # A forked child reads the responsiveness draws while this process reads
    # the seat draws. The child's error is raised only here, after the seat
    # file's, so with two bad files the seat file's error is the one reported.
    with _Forked(args.resp_model, lambda: pickle.dumps(load_draws_csv(args.resp_model),
                                                       pickle.HIGHEST_PROTOCOL)) as resp:
        seat_model = load_draws_csv(args.seat_model)
        resp_model = pickle.loads(b"".join(resp))
    for label, path, model in (("seat", args.seat_model, seat_model),
                               ("responsiveness", args.resp_model, resp_model)):
        if not model.diagnostics.passes():
            raise ConvergenceError(f"{path}: {label} model draws fail convergence thresholds",
                                   model.diagnostics)
    if seat_model.n_total != resp_model.n_total:
        raise DomainError(f"{args.seat_model} holds {seat_model.n_total} draws and "
                          f"{args.resp_model} {resp_model.n_total}; they must match")
    missing = [p.state_id for p in pairs if p.state_id not in covariates]
    if missing:
        raise DomainError(f"{args.covariates}: missing covariates for: {', '.join(missing)}")

    prediction = cf.predict_national(pairs, seat_model, resp_model, covariates, baseline)

    def summary(effect):
        return {"mean": effect.mean, "ci80": list(effect.ci80), "ci95": list(effect.ci95)}

    payload = {
        "meta": {**_meta(args, args.seed), "template": args.template},
        "total_dem_seat_change": summary(prediction.total_dem_seat_change),
        "responsiveness_slope": summary(prediction.responsiveness_slope),
        "seats_votes_line": {"intercept_seats": prediction.seats_votes_line[0],
                             "slope_seats_per_pp": prediction.seats_votes_line[1]},
    }
    _write_json(args.output, payload)

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
    # Each command is looked up when it runs: main keeps one parser per process,
    # and a wrapper set on this module later (a tracer) must be what runs.
    parser = argparse.ArgumentParser(
        prog="leeway",
        description="Redistricting-process game solver and reform analysis pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="parse or validate a codebook CSV")
    p.add_argument("--input", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--validate", action="store_true")
    mode.add_argument("--output")
    p.set_defaults(func=lambda args: _cmd_codebook(args))

    p = sub.add_parser("leeway", help="solve the game and write leeway scores")
    p.add_argument("--codebook", required=True)
    _add_common_solver_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--emit-diagnostics", help="write per state-draw solver JSON here")
    p.add_argument("--output", required=True)
    p.set_defaults(func=lambda args: _cmd_leeway(args))

    p = sub.add_parser("paths", help="final-drawer path cross-tab")
    p.add_argument("--codebook", required=True)
    _add_common_solver_args(p)
    p.add_argument("--per-state", help="also write per-state path probabilities")
    p.add_argument("--output", required=True)
    p.set_defaults(func=lambda args: _cmd_paths(args))

    p = sub.add_parser("metrics", help="plan outcome metrics under the swing model")
    p.add_argument("--plans", required=True)
    p.add_argument("--ensemble", help="simulation ensemble summaries for adjustment")
    p.add_argument("--sigma-national", type=float, default=0.0)
    p.add_argument("--sigma-district", type=float, default=0.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=lambda args: _cmd_metrics(args))

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
    p.set_defaults(func=lambda args: _cmd_did(args))

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
    p.set_defaults(func=lambda args: _cmd_counterfactual(args))

    return parser


# main's parser: built on its first call, not at import, and kept for the process.
# Only a caller that runs main many times in one process saves a build by it.
_parser = functools.cache(build_parser)


def _paths(args, names) -> list[tuple[str, str]]:
    """The (flag, path) of each flag in ``names`` that the command line gave."""
    return [(f"--{name.replace('_', '-')}", path) for name in names
            if (path := getattr(args, name, None))]


def _check_clashes(parser, args) -> None:
    """Exit 2, a usage error, where an output is another output or an input.

    An input that does not exist is left to its reader, which names it.
    """
    outputs = _paths(args, _OUTPUTS)
    inputs = [(flag, path) for flag, path in _paths(args, _INPUTS) if os.path.exists(path)]
    for i, (flag, path) in enumerate(outputs):
        for other, used in (*outputs[:i], *inputs):
            try:
                same = os.path.samefile(path, used)
            except OSError:  # an output that does not exist yet
                same = os.path.realpath(path) == os.path.realpath(used)
            if same:
                parser.error(f"{flag} {path} is the same file as {other} {used}")


def _check_directories(args) -> None:
    """DomainError, naming the flag, for an output path that cannot name a file to write.

    The real directory ``_write`` writes into must exist; the path must not be a directory.
    """
    for flag, path in _paths(args, _OUTPUTS):
        directory = os.path.dirname(os.path.realpath(path))
        if not os.path.isdir(directory):
            raise DomainError(f"{flag} {path}: no such directory: {directory}")
        if os.path.isdir(path):
            raise DomainError(f"{flag} {path}: is a directory")


# Exit code of a run that ends in an uncaught exception: a bug, not a data
# error (1) or a usage error (2).
EXIT_BUG = 3


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; an uncaught exception propagates."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        _check_clashes(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_directories(args)
        return args.func(args)
    except (DomainError, NotApplicable, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The ``leeway`` command: :func:`main`, or the traceback and EXIT_BUG on a bug."""
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = EXIT_BUG
    sys.exit(code)


if __name__ == "__main__":
    entry()
