"""Institutional coding of state redistricting processes.

Each state-cycle is described by 14 procedural variables: which body draws
the map, who can veto it, whether state courts can review it, who breaks a
stalemate, plus the party in control of each of those bodies, the body that
actually drew the final plan, and whether the state was subject to DOJ
preclearance. Rows are read from / written to a canonical CSV format and
checked against a fixed set of structural rules.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path


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

# Canonical CSV column order; first row of any codebook file must match.
COLUMNS = (
    "state", "cycle",
    "drawer", "drawer_control",
    "veto1", "veto1_control",
    "veto2", "veto2_control",
    "court_review", "court_control",
    "stalemate1", "stalemate1_control",
    "stalemate2", "stalemate2_control",
    "final_drawer", "preclearance",
)


class CodebookError(ValueError):
    """Base class for codebook ingestion failures."""


class UnknownColumn(CodebookError):
    def __init__(self, columns):
        super().__init__(f"header does not match canonical columns: {columns!r}")
        self.columns = columns


class UnknownEnumLiteral(CodebookError):
    def __init__(self, row, column, value):
        super().__init__(f"row {row!r}: column {column!r} has unknown literal {value!r}")
        self.row = row
        self.column = column
        self.value = value


class DuplicateKey(CodebookError):
    def __init__(self, key):
        super().__init__(f"duplicate (state, cycle) key {key!r}")
        self.key = key


class InvariantViolation(CodebookError):
    def __init__(self, row, rule, message):
        super().__init__(f"row {row!r}: [{rule}] {message}")
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
            for name in ("drawer_control", "veto1_control", "veto2_control",
                         "court_control", "stalemate1_control", "stalemate2_control")
        }
        return replace(self, **updates)


def validate(process: StateProcess) -> list[RuleViolation]:
    """Check one row against the structural rules.

    Returns an empty list iff all rules hold. Violations are data, not
    failures: the caller decides whether to reject the row.
    """
    v: list[RuleViolation] = []

    body_control_pairs = (
        ("drawer", process.drawer, Drawer.NA, process.drawer_control),
        ("veto1", process.veto1, Veto1.NA, process.veto1_control),
        ("veto2", process.veto2, Veto2.NA, process.veto2_control),
        ("stalemate1", process.stalemate1, Stalemate1.NA, process.stalemate1_control),
        ("stalemate2", process.stalemate2, Stalemate2.NA, process.stalemate2_control),
    )

    if process.drawer is Drawer.NA:
        others = [name for name, body, na, _ in body_control_pairs[1:] if body is not na]
        if process.court_review is not CourtReview.NA:
            others.append("court_review")
        if others:
            v.append(RuleViolation(
                "drawer-na-cascades",
                f"drawer is NA but {', '.join(others)} present (single-district state)",
            ))

    if process.veto2 is not Veto2.NA and process.veto1 is Veto1.NA:
        v.append(RuleViolation("veto-ordering", "veto2 present without veto1"))

    for name, body, na, control in body_control_pairs:
        if body is na and control is not PartyControl.NA:
            v.append(RuleViolation(
                "control-without-body",
                f"{name} is NA but {name}_control is {control.value}",
            ))

    if process.stalemate2 is not Stalemate2.NA and process.stalemate1 is Stalemate1.NA:
        v.append(RuleViolation("stalemate-ordering", "stalemate2 present without stalemate1"))

    if (process.court_review in (CourtReview.YES, CourtReview.MAYBE)
            and process.court_control is PartyControl.NA):
        v.append(RuleViolation(
            "court-control-missing",
            f"court_review is {process.court_review.value} but court_control is NA",
        ))

    if process.drawer is not Drawer.NA and process.drawer_control is PartyControl.NA:
        v.append(RuleViolation("drawer-control-missing",
                               "drawer present but drawer_control is NA"))

    # The post-enactment court machinery conditions on court_review, so a
    # row with a game has no defined value without it.
    if process.drawer is not Drawer.NA and process.court_review is CourtReview.NA:
        v.append(RuleViolation("court-review-missing",
                               "drawer present but court_review is NA"))

    return v


@dataclass(frozen=True)
class Codebook:
    """An ordered collection of StateProcess rows, keyed by (state, cycle)."""

    rows: tuple[StateProcess, ...]

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            if row.key in seen:
                raise DuplicateKey(row.key)
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


def _parse_enum(enum_cls, raw, row_key, column):
    # Enum cells match variant literals case-insensitively.
    for member in enum_cls:
        if member.value.lower() == raw.strip().lower():
            return member
    raise UnknownEnumLiteral(row_key, column, raw)


def _parse_row(record: dict[str, str]) -> StateProcess:
    row_key = (record.get("state", "?"), record.get("cycle", "?"))

    raw_cycle = record["cycle"].strip()
    if raw_cycle not in {str(c) for c in CYCLES}:
        raise UnknownEnumLiteral(row_key, "cycle", raw_cycle)

    raw_pre = record["preclearance"].strip().lower()
    if raw_pre not in ("yes", "no"):
        raise UnknownEnumLiteral(row_key, "preclearance", record["preclearance"])

    kwargs = {
        "state_id": record["state"].strip(),
        "cycle": int(raw_cycle),
        "preclearance": raw_pre == "yes",
    }
    for column, enum_cls in _ENUM_BY_COLUMN.items():
        kwargs[column] = _parse_enum(enum_cls, record[column], row_key, column)
    return StateProcess(**kwargs)


def _decode(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def _read_records(source) -> list[dict[str, str]]:
    text = _decode(source)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    try:
        header = next(reader)
    except StopIteration:
        raise UnknownColumn([]) from None
    if tuple(h.strip() for h in header) != COLUMNS:
        raise UnknownColumn(header)
    records = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(COLUMNS):
            raise CodebookError(f"row {tuple(cells[:2])!r}: {len(cells)} cells, "
                                f"expected {len(COLUMNS)}")
        records.append(dict(zip(COLUMNS, cells)))
    return records


def parse_codebook(source) -> Codebook:
    """Parse a canonical codebook CSV (bytes, str, path, or file object).

    Raises UnknownColumn / UnknownEnumLiteral / DuplicateKey /
    InvariantViolation on the first offending row; row order is preserved.
    """
    rows = []
    for record in _read_records(source):
        process = _parse_row(record)
        violations = validate(process)
        if violations:
            first = violations[0]
            raise InvariantViolation(process.key, first.rule, first.message)
        rows.append(process)
    return Codebook(tuple(rows))


def lint_codebook(source) -> list[tuple[tuple[str, str], str]]:
    """Collect every issue in a codebook file instead of failing fast.

    Returns a list of ((state, cycle), description) pairs; the set of issues
    does not depend on row order (duplicate keys are reported by key).
    """
    issues: list[tuple[tuple[str, str], str]] = []
    seen: set[tuple[str, str]] = set()
    for record in _read_records(source):
        row_key = (record.get("state", "?").strip(), record.get("cycle", "?").strip())
        try:
            process = _parse_row(record)
        except UnknownEnumLiteral as exc:
            issues.append((row_key, f"unknown-literal: {exc.column}={exc.value!r}"))
            continue
        for violation in validate(process):
            issues.append((row_key, f"{violation.rule}: {violation.message}"))
        if row_key in seen:
            issues.append((row_key, "duplicate-key"))
        seen.add(row_key)
    return issues


def serialize_codebook(codebook: Codebook) -> str:
    """Render a codebook in the canonical CSV format (parse round-trips)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in codebook:
        writer.writerow([
            row.state_id, row.cycle,
            row.drawer.value, row.drawer_control.value,
            row.veto1.value, row.veto1_control.value,
            row.veto2.value, row.veto2_control.value,
            row.court_review.value, row.court_control.value,
            row.stalemate1.value, row.stalemate1_control.value,
            row.stalemate2.value, row.stalemate2_control.value,
            row.final_drawer.value, "yes" if row.preclearance else "no",
        ])
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
