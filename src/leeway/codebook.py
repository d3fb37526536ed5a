"""Institutional coding of state redistricting processes.

Each state-cycle is described by 14 procedural variables: which body draws
the map, who can veto it, whether state courts can review it, who breaks a
stalemate, plus the party in control of each of those bodies, the body that
actually drew the final plan, and whether the state was subject to DOJ
preclearance. Rows are read from / written to a canonical CSV format and
checked against a fixed set of structural rules. The column layout lives in
one table, ``_ENUM_BY_COLUMN`` (each coded column and its enum, in order):
the header, the parser, the writer, the structural rules and party mirror
images all derive from it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import DomainError


class PartyControl(str, Enum):
    DEMOCRATS = "Democrats"
    REPUBLICANS = "Republicans"
    SPLIT = "Split"
    NONPARTISANS = "Nonpartisans"
    NA = "NA"


class Drawer(str, Enum):
    LEGISLATURE = "Legislature"
    COMMISSION = "Commission"
    NA = "NA"


class Veto1(str, Enum):
    LEGISLATURE = "Legislature"
    GOVERNOR = "Governor"
    VOTERS = "Voters"
    NA = "NA"


class Veto2(str, Enum):
    GOVERNOR = "Governor"
    NA = "NA"


class CourtReview(str, Enum):
    YES = "Yes"
    MAYBE = "Maybe"
    NO = "No"
    NA = "NA"


class Stalemate1(str, Enum):
    COURT = "Court"
    COMMISSION = "Commission"
    COMMISSION_STAFF = "CommissionStaff"
    UNCLEAR = "Unclear"
    NA = "NA"


class Stalemate2(str, Enum):
    COURT = "Court"
    LEGISLATURE = "Legislature"
    UNCLEAR = "Unclear"
    NA = "NA"


class FinalDrawer(str, Enum):
    LEGISLATURE = "Legislature"
    COMMISSION = "Commission"
    GOVERNOR = "Governor"
    COURT_MASTER = "CourtMaster"
    COURT_D_REMEDY = "CourtDRemedy"
    COURT_R_REMEDY = "CourtRRemedy"
    NA = "NA"


CYCLES = (2010, 2020)

# Each coded column's enum, in canonical order: the one statement of the layout.
_ENUM_BY_COLUMN = {
    "drawer": Drawer,
    "drawer_control": PartyControl,
    "veto1": Veto1,
    "veto1_control": PartyControl,
    "veto2": Veto2,
    "veto2_control": PartyControl,
    "court_review": CourtReview,
    "court_control": PartyControl,
    "stalemate1": Stalemate1,
    "stalemate1_control": PartyControl,
    "stalemate2": Stalemate2,
    "stalemate2_control": PartyControl,
    "final_drawer": FinalDrawer,
}

# Canonical CSV column order; first row of any codebook file must match.
COLUMNS = ("state", "cycle", *_ENUM_BY_COLUMN, "preclearance")


class CodebookError(DomainError):
    """Base class for codebook ingestion failures."""


class UnknownColumn(CodebookError):
    """The header is not the canonical column list."""


class UnknownEnumLiteral(CodebookError):
    def __init__(self, row, column, value):  # row: "<file>, line N" when read from a file
        super().__init__(f"{row}: column {column!r} has unknown literal {value!r}")
        self.row = row
        self.column = column
        self.value = value


class DuplicateKey(CodebookError):
    """Two rows share a (state, cycle) key."""


class InvariantViolation(CodebookError):
    def __init__(self, row, rule, message, where):
        super().__init__(f"{where}: [{rule}] {message}")
        self.row = row
        self.rule = rule


@dataclass(frozen=True)
class RuleViolation:
    """A single structural-rule failure; ``rule`` is a stable identifier."""

    rule: str
    message: str


@dataclass(frozen=True)
class StateProcess:
    """One state-cycle's redistricting procedure and party control."""

    state_id: str
    cycle: int
    drawer: Drawer
    drawer_control: PartyControl
    veto1: Veto1
    veto1_control: PartyControl
    veto2: Veto2
    veto2_control: PartyControl
    court_review: CourtReview
    court_control: PartyControl
    stalemate1: Stalemate1
    stalemate1_control: PartyControl
    stalemate2: Stalemate2
    stalemate2_control: PartyControl
    final_drawer: FinalDrawer
    preclearance: bool

    @property
    def key(self) -> tuple[str, int]:
        return (self.state_id, self.cycle)

    def mirrored(self) -> "StateProcess":
        """Swap Democrats and Republicans at every node, court included."""
        swap = {
            PartyControl.DEMOCRATS: PartyControl.REPUBLICANS,
            PartyControl.REPUBLICANS: PartyControl.DEMOCRATS,
        }
        updates = {
            name: swap.get(getattr(self, name), getattr(self, name))
            for name, enum_cls in _ENUM_BY_COLUMN.items() if enum_cls is PartyControl
        }
        return replace(self, **updates)


# (body, its NA, its control column) for the drawer, vetoes and stalemate links.
_BODY_CONTROLS = tuple((name, enum_cls.NA, f"{name}_control")
                       for name, enum_cls in _ENUM_BY_COLUMN.items()
                       if f"{name}_control" in _ENUM_BY_COLUMN)


def validate(process: StateProcess) -> list[RuleViolation]:
    """Check one row against the structural rules.

    Returns an empty list iff all rules hold. Violations are data, not
    failures: the caller decides whether to reject the row.
    """
    v: list[RuleViolation] = []

    if process.drawer is Drawer.NA:
        others = [name for name, na, _ in _BODY_CONTROLS[1:] if getattr(process, name) is not na]
        if process.court_review is not CourtReview.NA:
            others.append("court_review")
        if others:
            v.append(RuleViolation(
                "drawer-na-cascades",
                f"drawer is NA but {', '.join(others)} present (single-district state)",
            ))

    if process.veto2 is not Veto2.NA and process.veto1 is Veto1.NA:
        v.append(RuleViolation("veto-ordering", "veto2 present without veto1"))

    for name, na, control_name in _BODY_CONTROLS:
        control = getattr(process, control_name)
        if getattr(process, name) is na and control is not PartyControl.NA:
            v.append(RuleViolation("control-without-body",
                                   f"{name} is NA but {control_name} is {control.value}"))

    if process.stalemate2 is not Stalemate2.NA and process.stalemate1 is Stalemate1.NA:
        v.append(RuleViolation("stalemate-ordering", "stalemate2 present without stalemate1"))

    if (process.court_review in (CourtReview.YES, CourtReview.MAYBE)
            and process.court_control is PartyControl.NA):
        v.append(RuleViolation(
            "court-control-missing",
            f"court_review is {process.court_review.value} but court_control is NA",
        ))

    # A row with a game must code its drawer's control, its court review (the
    # post-enactment court machinery conditions on it) and its final drawer
    # (the path table sorts each row with a game by it).
    if process.drawer is not Drawer.NA:
        for rule, column in (("drawer-control-missing", "drawer_control"),
                             ("court-review-missing", "court_review"),
                             ("final-drawer-missing", "final_drawer")):
            if getattr(process, column) is _ENUM_BY_COLUMN[column].NA:
                v.append(RuleViolation(rule, f"drawer present but {column} is NA"))

    return v


def check(process: StateProcess, where: str | None = None) -> None:
    """Raise InvariantViolation, at ``where`` or else the row's key, for the first rule broken.

    The one test of whether a row can be solved: parsing, Codebook and the solver run it.
    """
    violations = validate(process)
    if violations:
        raise InvariantViolation(process.key, violations[0].rule, violations[0].message,
                                 where or str(process.key))


@dataclass(frozen=True)
class Codebook:
    """Ordered StateProcess rows, keyed by (state, cycle), each passing :func:`check`."""

    rows: tuple[StateProcess, ...]

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            check(row)
            if row.key in seen:
                raise DuplicateKey(f"duplicate (state, cycle) key {row.key!r}")
            seen.add(row.key)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def get(self, state_id: str, cycle: int) -> StateProcess:
        for row in self.rows:
            if row.key == (state_id, cycle):
                return row
        raise KeyError((state_id, cycle))

    def for_cycle(self, cycle: int) -> "Codebook":
        return Codebook(tuple(r for r in self.rows if r.cycle == cycle))


# Each enum's members by lowercased literal: enum cells match case-insensitively.
_MEMBERS = {enum_cls: {member.value.lower(): member for member in enum_cls}
            for enum_cls in _ENUM_BY_COLUMN.values()}

_CYCLE_LITERALS = frozenset(str(c) for c in CYCLES)


def _parse_enum(enum_cls, raw, row, column):
    member = _MEMBERS[enum_cls].get(raw.strip().lower())
    if member is None:
        raise UnknownEnumLiteral(row, column, raw)
    return member


def _parse_row(record: dict[str, str], where: str) -> StateProcess:
    state = record["state"].strip()
    if not state:
        raise CodebookError(f"{where}: state is empty")

    raw_cycle = record["cycle"].strip()
    if raw_cycle not in _CYCLE_LITERALS:
        raise UnknownEnumLiteral(where, "cycle", raw_cycle)

    raw_pre = record["preclearance"].strip().lower()
    if raw_pre not in ("yes", "no"):
        raise UnknownEnumLiteral(where, "preclearance", record["preclearance"])

    kwargs = {
        "state_id": state,
        "cycle": int(raw_cycle),
        "preclearance": raw_pre == "yes",
    }
    for column, enum_cls in _ENUM_BY_COLUMN.items():
        kwargs[column] = _parse_enum(enum_cls, record[column], where, column)
    return StateProcess(**kwargs)


def read_table(name: str, text: str | None = None, error: type = DomainError):
    """The header's line, the header and the records, each with its line, of a CSV table.

    The package's one CSV reader, and the one statement of the rules every
    CSV input follows: the codebook and every table and draw file of
    ``leeway.cli`` come through it. The table is ``text``, or else the file
    ``name``, read as far as the caller iterates. A leading byte-order mark
    is dropped, '#' lines before the header are comments, blank records are
    skipped, header names are trimmed, and a missing header is []. The
    caller checks the header before it iterates: a longer record raises
    ``error`` as "<name>, line N: K cells, expected M", and a short one's
    missing cells are ''. Bytes that are not UTF-8 and text that is not
    well-formed CSV raise ``error`` naming the line.
    """
    line = 0

    def lines():
        nonlocal line
        if text is None:
            fh = open(name, encoding="utf-8", errors="surrogateescape", newline="")
        else:
            fh = io.StringIO(text, newline="")
        with fh:
            comments = True  # until the header
            for line, ln in enumerate(fh, 1):
                if not ln.isascii():  # an undecodable byte is a lone surrogate here
                    try:
                        ln.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeError as exc:
                        raise error(f"{name}, line {line}: {exc}") from None
                    if line == 1:
                        ln = ln.removeprefix("\ufeff")
                if comments and ln.startswith("#"):
                    continue
                comments = comments and not ln.strip("\r\n")
                yield ln

    def rows():
        try:
            yield from filter(None, csv.reader(lines(), strict=True))
        except csv.Error as exc:
            raise error(f"{name}, line {line}: {exc}") from None

    body = rows()
    header = [field.strip() for field in next(body, [])]
    header_line = line if header else line + 1

    def records():
        for cells in body:
            if len(cells) > len(header):
                raise error(f"{name}, line {line}: {len(cells)} cells, expected {len(header)}")
            yield line, dict(zip(header, cells + [""] * (len(header) - len(cells))))

    return header_line, header, records()


def first_line(name: str, seen: dict, key: tuple, line: int, what: str, error=DomainError):
    """Record the line of a key, or raise ``error`` naming both lines of a repeat."""
    if key in seen:
        raise error(f"{name}, lines {seen[key]} and {line}: duplicate {what} "
                    f"{','.join(map(str, key))}")
    seen[key] = line


def _read_records(source: Path | str):
    """Each record of a codebook by canonical column, after its file name and line."""
    if isinstance(source, Path):
        name, text = str(source), None
    else:  # text has no name
        name, text = "<codebook>", source
    line, header, records = read_table(name, text, CodebookError)
    if tuple(header) != COLUMNS:
        raise UnknownColumn(f"{name}, line {line}: header does not match canonical "
                            f"columns: {header!r}")
    return ((name, line, record) for line, record in records)


def parse_codebook(source: Path | str) -> Codebook:
    """Parse a canonical codebook CSV: the file at a Path, or the CSV text of a str.

    Row order is preserved. The first offending row raises a CodebookError
    whose message starts with "<file>, line N: ": the file is the path, or
    "<codebook>" for text. A repeated (state, cycle) raises DuplicateKey as
    "<file>, lines M and N: ".
    """
    rows, lines = [], {}
    for name, line, record in _read_records(source):
        where = f"{name}, line {line}"
        process = _parse_row(record, where)
        check(process, where)
        first_line(name, lines, process.key, line, "(state, cycle) key", DuplicateKey)
        rows.append(process)
    return Codebook(tuple(rows))


def lint_codebook(source: Path | str) -> list[tuple[tuple[str, str], str, str]]:
    """Collect every issue in a codebook, a Path or CSV text, instead of failing fast.

    Returns a list of ((state, cycle), description, "<file>, line N")
    triples. The set of (key, description) pairs does not depend on row
    order: a repeated key is reported by key, at the line of the repeat. A
    bad header, a row longer than it, or an empty state raises as in
    parse_codebook.
    """
    issues: list[tuple[tuple[str, str], str, str]] = []
    seen: set[tuple[str, str]] = set()
    for name, line, record in _read_records(source):
        row_key = (record["state"].strip(), record["cycle"].strip())
        where = f"{name}, line {line}"
        try:
            process = _parse_row(record, where)
        except UnknownEnumLiteral as exc:
            issues.append((row_key, f"unknown-literal: {exc.column}={exc.value!r}", where))
            continue
        for violation in validate(process):
            issues.append((row_key, f"{violation.rule}: {violation.message}", where))
        if row_key in seen:
            issues.append((row_key, "duplicate-key", where))
        seen.add(row_key)
    return issues


def serialize_codebook(codebook: Codebook) -> str:
    """Render a codebook in the canonical CSV format (parse round-trips)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in codebook:
        writer.writerow([row.state_id, row.cycle,
                         *(getattr(row, column).value for column in _ENUM_BY_COLUMN),
                         "yes" if row.preclearance else "no"])
    return out.getvalue()


def load_fixture_codebook() -> Codebook:
    """Bundled sample of hand-coded state-cycle rows.

    A curated transcription covering the structurally distinct process
    types (partisan trifectas, independent commissions, split bodies,
    court and commission stalemate breakers, preclearance and not). The
    full national dataset is user-supplied data in the same format.
    """
    data = resources.files("leeway.data").joinpath("fixture_codebook.csv").read_text("utf-8")
    return parse_codebook(data)
