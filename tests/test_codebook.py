import inspect
import random
import re
from dataclasses import replace

import pytest

from leeway.codebook import (_ENUM_BY_COLUMN, Codebook, CodebookError, CourtReview,
                             Drawer, DuplicateKey, FinalDrawer, InvariantViolation,
                             PartyControl, _parse_enum,
                             StateProcess, Stalemate1, Stalemate2,
                             UnknownColumn, UnknownEnumLiteral, Veto1, Veto2,
                             lint_codebook, load_fixture_codebook, parse_codebook,
                             check, serialize_codebook, validate)

HEADER = ("state,cycle,drawer,drawer_control,veto1,veto1_control,veto2,veto2_control,"
          "court_review,court_control,stalemate1,stalemate1_control,"
          "stalemate2,stalemate2_control,final_drawer,preclearance")

AL_ROW = ("AL,2020,Legislature,Republicans,Governor,Republicans,NA,NA,"
          "No,Republicans,Unclear,NA,NA,NA,Legislature,yes")


def make_process(**overrides) -> StateProcess:
    base = dict(
        state_id="ZZ", cycle=2020,
        drawer=Drawer.LEGISLATURE, drawer_control=PartyControl.REPUBLICANS,
        veto1=Veto1.NA, veto1_control=PartyControl.NA,
        veto2=Veto2.NA, veto2_control=PartyControl.NA,
        court_review=CourtReview.NO, court_control=PartyControl.REPUBLICANS,
        stalemate1=Stalemate1.UNCLEAR, stalemate1_control=PartyControl.NA,
        stalemate2=Stalemate2.NA, stalemate2_control=PartyControl.NA,
        final_drawer=FinalDrawer.LEGISLATURE, preclearance=False,
    )
    base.update(overrides)
    return StateProcess(**base)


class TestParse:
    def test_alabama_row(self):
        book = parse_codebook(f"{HEADER}\n{AL_ROW}\n")
        row = book.get("AL", 2020)
        assert row.drawer is Drawer.LEGISLATURE
        assert row.drawer_control is PartyControl.REPUBLICANS
        assert row.veto1 is Veto1.GOVERNOR
        assert row.veto1_control is PartyControl.REPUBLICANS
        assert row.veto2 is Veto2.NA
        assert row.court_review is CourtReview.NO
        assert row.preclearance is True

    def test_case_insensitive_literals(self):
        row = AL_ROW.replace("Legislature", "LEGISLATURE").replace("yes", "YES")
        book = parse_codebook(f"{HEADER}\n{row}\n")
        assert book.get("AL", 2020).drawer is Drawer.LEGISLATURE

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            parse_codebook("state,cycle\nAL,2020\n")

    def test_unknown_literal_names_row_and_column(self):
        bad = AL_ROW.replace("Governor", "Monarch")
        with pytest.raises(UnknownEnumLiteral) as err:
            parse_codebook(f"{HEADER}\n{bad}\n")
        assert err.value.column == "veto1"

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKey):
            parse_codebook(f"{HEADER}\n{AL_ROW}\n{AL_ROW}\n")

    @pytest.mark.parametrize("row,error,message", [
        (AL_ROW.replace("Governor", "Monarch"), UnknownEnumLiteral,
         "line 4: column 'veto1' has unknown literal 'Monarch'"),
        (AL_ROW.replace("Governor,Republicans", "NA,Republicans"), InvariantViolation,
         "line 4: [control-without-body] veto1 is NA but veto1_control is Republicans"),
        (AL_ROW.replace("AL", "  ", 1), CodebookError, "line 4: state is empty"),
        (AL_ROW, DuplicateKey, "lines 3 and 4: duplicate (state, cycle) key AL,2020"),
        (AL_ROW.replace("2020", "2016"), UnknownEnumLiteral,
         "line 4: column 'cycle' has unknown literal '2016'"),
    ], ids=["literal", "rule", "empty-state", "duplicate", "cycle"])
    def test_errors_name_the_file_and_line(self, tmp_path, row, error, message):
        path = tmp_path / "book.csv"
        path.write_text(f"# a comment line\n{HEADER}\n{AL_ROW}\n{row}\n")
        for source, name in ((path, str(path)), (path.read_text(), "<codebook>")):
            with pytest.raises(error) as err:
                parse_codebook(source)
            assert str(err.value) == f"{name}, {message}"

    def test_header_error_names_its_line(self):
        with pytest.raises(UnknownColumn, match=r"^<codebook>, line 2: header does not match"):
            parse_codebook("# a comment line\nstate,cycle\nAL,2020\n")

    def test_control_without_body_rejected(self):
        bad = AL_ROW.replace("Governor,Republicans", "NA,Republicans")
        with pytest.raises(InvariantViolation) as err:
            parse_codebook(f"{HEADER}\n{bad}\n")
        assert err.value.rule == "control-without-body"

    def test_kentucky_overridable_veto_parses(self):
        row = ("KY,2020,Legislature,Republicans,NA,NA,NA,NA,"
               "Yes,Republicans,Unclear,NA,NA,NA,Legislature,no")
        book = parse_codebook(f"{HEADER}\n{row}\n")
        assert book.get("KY", 2020).veto1 is Veto1.NA

    def test_comment_lines_skipped(self):
        text = f"# leeway v0 seed=1 config=x\n{HEADER}\n{AL_ROW}\n"
        assert len(parse_codebook(text)) == 1

    @pytest.mark.parametrize("row", [AL_ROW.rsplit(",", 1)[0], AL_ROW + ",no"])
    def test_row_with_wrong_cell_count(self, row):
        # A long row fails on its cell count; a short row reads its missing
        # preclearance cell as empty, which is no literal.
        message = ("17 cells, expected 16" if row.endswith(",no")
                   else "column 'preclearance' has unknown literal ''")
        with pytest.raises(CodebookError, match=rf"^<codebook>, line 2: {message}$"):
            parse_codebook(f"{HEADER}\n{row}\n")


class TestValidate:
    def test_michigan_style_clean(self):
        process = make_process(
            drawer=Drawer.COMMISSION, drawer_control=PartyControl.NONPARTISANS,
            court_review=CourtReview.YES, court_control=PartyControl.NONPARTISANS,
            stalemate1=Stalemate1.COMMISSION,
            stalemate1_control=PartyControl.NONPARTISANS,
            final_drawer=FinalDrawer.COMMISSION)
        assert validate(process) == []

    def test_drawer_na_cascades(self):
        process = make_process(drawer=Drawer.NA, drawer_control=PartyControl.NA,
                               veto1=Veto1.GOVERNOR,
                               veto1_control=PartyControl.REPUBLICANS,
                               court_review=CourtReview.NO,
                               court_control=PartyControl.NA,
                               stalemate1=Stalemate1.NA)
        rules = [v.rule for v in validate(process)]
        assert "drawer-na-cascades" in rules

    def test_stalemate_ordering(self):
        process = make_process(stalemate1=Stalemate1.NA,
                               stalemate2=Stalemate2.LEGISLATURE,
                               stalemate2_control=PartyControl.REPUBLICANS)
        rules = [v.rule for v in validate(process)]
        assert "stalemate-ordering" in rules

    def test_veto_ordering(self):
        process = make_process(veto2=Veto2.GOVERNOR,
                               veto2_control=PartyControl.REPUBLICANS)
        rules = [v.rule for v in validate(process)]
        assert "veto-ordering" in rules

    def test_court_control_required_when_reviewable(self):
        process = make_process(court_review=CourtReview.YES,
                               court_control=PartyControl.NA)
        rules = [v.rule for v in validate(process)]
        assert "court-control-missing" in rules

    def test_court_review_required_when_drawn(self):
        process = make_process(court_review=CourtReview.NA,
                               court_control=PartyControl.NA)
        rules = [v.rule for v in validate(process)]
        assert rules == ["court-review-missing"]
        with pytest.raises(InvariantViolation) as err:
            parse_codebook(serialize_codebook(Codebook((process,))))
        assert err.value.rule == "court-review-missing"
        assert err.value.row == ("ZZ", 2020)

    def test_final_drawer_required_when_drawn(self):
        process = make_process(final_drawer=FinalDrawer.NA)
        assert [v.rule for v in validate(process)] == ["final-drawer-missing"]
        with pytest.raises(InvariantViolation) as err:
            parse_codebook(serialize_codebook(Codebook((process,))))
        assert err.value.rule == "final-drawer-missing"
        assert err.value.row == ("ZZ", 2020)

    def test_single_district_row_valid(self):
        process = make_process(
            drawer=Drawer.NA, drawer_control=PartyControl.NA,
            court_review=CourtReview.NA, court_control=PartyControl.NA,
            stalemate1=Stalemate1.NA, final_drawer=FinalDrawer.NA)
        assert validate(process) == []


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        book = load_fixture_codebook()
        text = serialize_codebook(book)
        assert parse_codebook(text) == book
        assert serialize_codebook(parse_codebook(text)) == text

    def test_state_starting_with_hash_round_trips(self):
        # Only the lines before the header are comments, so a row whose
        # state starts with '#' is a row.
        rows = load_fixture_codebook().rows[:3]
        book = Codebook((rows[0], replace(rows[1], state_id="#X"), rows[2]))
        assert parse_codebook(serialize_codebook(book)) == book

    def test_fixture_rows_all_validate(self):
        for row in load_fixture_codebook():
            assert validate(row) == [], row.key

    def test_fixture_has_enough_rows(self):
        book = load_fixture_codebook()
        assert len(book) >= 12
        states = {r.state_id for r in book}
        assert {"AL", "MI", "NY", "OH", "IA", "KS", "KY", "CA", "MN", "ID",
                "IN", "WI", "VA", "NC", "WV"} <= states


class TestLint:
    def test_order_independent_issue_set(self):
        rows = [
            AL_ROW,
            AL_ROW.replace("AL", "XX").replace("Governor,Republicans", "NA,Republicans"),
            AL_ROW.replace("AL", "YY").replace("Unclear,NA,NA,NA",
                                               "NA,NA,Court,Democrats"),
        ]
        issue_sets = []
        for _ in range(5):
            random.Random(len(issue_sets)).shuffle(rows)
            text = HEADER + "\n" + "\n".join(rows) + "\n"
            issue_sets.append({(key, msg) for key, msg, _ in lint_codebook(text)})
        assert all(s == issue_sets[0] for s in issue_sets)
        assert issue_sets[0]  # the bad rows are reported

    def test_duplicate_reported_by_key(self):
        text = f"{HEADER}\n{AL_ROW}\n{AL_ROW}\n"
        issues = lint_codebook(text)
        assert (("AL", "2020"), "duplicate-key") in {(key, msg) for key, msg, _ in issues}
        assert (("AL", "2020"), "duplicate-key", "<codebook>, line 3") in issues  # the repeat

    def test_each_issue_names_its_line(self, tmp_path):
        path = tmp_path / "book.csv"
        unknown = AL_ROW.replace("Governor", "Monarch")
        broken = AL_ROW.replace("AL", "XX").replace("Governor,Republicans", "NA,Republicans")
        path.write_text(f"# comment\n{HEADER}\n{unknown}\n{broken}\n")
        assert [(key, where) for key, _, where in lint_codebook(path)] == [
            (("AL", "2020"), f"{path}, line 3"), (("XX", "2020"), f"{path}, line 4")]


def test_parse_enum_ignores_case_and_padding():
    key = ("ZZ", "2020")
    for column, enum_cls in _ENUM_BY_COLUMN.items():
        for member in enum_cls:
            for raw in (member.value, f"  {member.value.upper()}\t", member.value.swapcase()):
                assert _parse_enum(enum_cls, raw, key, column) is member
    for raw in ("Monarch", "", "Governor", "Democrat"):
        with pytest.raises(UnknownEnumLiteral) as err:
            _parse_enum(Drawer, raw, key, "drawer")
        assert (err.value.row, err.value.column, err.value.value) == (key, "drawer", raw)


# One row per rule in validate(), breaking that rule first.
_BREAKS = {
    "drawer-na-cascades": dict(drawer=Drawer.NA, drawer_control=PartyControl.NA),
    "veto-ordering": dict(veto2=Veto2.GOVERNOR, veto2_control=PartyControl.REPUBLICANS),
    "control-without-body": dict(veto1_control=PartyControl.DEMOCRATS),
    "stalemate-ordering": dict(stalemate1=Stalemate1.NA, stalemate2=Stalemate2.COURT),
    "court-control-missing": dict(court_review=CourtReview.YES, court_control=PartyControl.NA),
    "drawer-control-missing": dict(drawer_control=PartyControl.NA),
    "court-review-missing": dict(court_review=CourtReview.NA),
    "final-drawer-missing": dict(final_drawer=FinalDrawer.NA),
}


def test_every_rule_has_a_breaking_row():
    # Every hyphenated string in validate() is a rule identifier.
    rules = re.findall(r'"([a-z]+(?:-[a-z]+)+)"', inspect.getsource(validate))
    assert sorted(rules) == sorted(_BREAKS)


def csv_text(*rows: StateProcess) -> str:
    """A codebook's CSV text holding ``rows``, whether they validate or not."""
    return "".join([HEADER, "\n"] + [
        ",".join([row.state_id, str(row.cycle),
                  *(getattr(row, column).value for column in _ENUM_BY_COLUMN),
                  "yes" if row.preclearance else "no"]) + "\n" for row in rows])


@pytest.mark.parametrize("rule", _BREAKS)
class TestOneBoundary:
    """Every invalid row is rejected by codebook.check, however the codebook is built."""

    def test_codebook_built_in_code(self, rule):
        valid = load_fixture_codebook().rows[0]
        with pytest.raises(InvariantViolation, match=re.escape(f"('ZZ', 2020): [{rule}] ")) as err:
            Codebook((valid, make_process(**_BREAKS[rule])))
        assert (err.value.rule, err.value.row) == (rule, ("ZZ", 2020))

    def test_parsed_codebook_names_the_line(self, rule):
        text = csv_text(load_fixture_codebook().rows[0], make_process(**_BREAKS[rule]))
        with pytest.raises(InvariantViolation, match=re.escape(f"<codebook>, line 3: [{rule}] ")):
            parse_codebook(text)

    def test_check_names_the_given_place(self, rule):
        with pytest.raises(InvariantViolation, match=re.escape(f"here: [{rule}] ")) as err:
            check(make_process(**_BREAKS[rule]), "here")
        assert (err.value.rule, err.value.row) == (rule, ("ZZ", 2020))


def test_codebook_rejects_duplicates_directly():
    row = load_fixture_codebook().rows[0]
    with pytest.raises(DuplicateKey):
        Codebook((row, row))


def test_get_missing_key_raises_key_error():
    with pytest.raises(KeyError, match=r"\('ZZ', 2020\)"):
        load_fixture_codebook().get("ZZ", 2020)


def test_mirrored_swaps_parties():
    process = make_process()
    mirrored = process.mirrored()
    assert mirrored.drawer_control is PartyControl.DEMOCRATS
    assert mirrored.court_control is PartyControl.DEMOCRATS
    assert mirrored.mirrored() == process


def test_mirrored_swaps_every_control_column_and_nothing_else():
    swap = {PartyControl.DEMOCRATS: PartyControl.REPUBLICANS,
            PartyControl.REPUBLICANS: PartyControl.DEMOCRATS}
    coded = HEADER.split(",")[2:-1]
    controls = {c for c in coded if c.endswith("_control")}
    swapped = set()
    for row in load_fixture_codebook():
        mirrored = row.mirrored()
        assert (mirrored.state_id, mirrored.cycle, mirrored.preclearance) == (
            row.state_id, row.cycle, row.preclearance)
        for column in coded:
            before, after = getattr(row, column), getattr(mirrored, column)
            assert after is (swap.get(before, before) if column in controls else before)
            if after is not before:
                swapped.add(column)
    assert swapped == controls  # the fixture exercises all six control columns
