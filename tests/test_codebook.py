import io
import random

import pytest

from leeway.codebook import (Codebook, CodebookError, CourtReview, Drawer, DuplicateKey,
                             FinalDrawer, InvariantViolation, PartyControl,
                             StateProcess, Stalemate1, Stalemate2,
                             UnknownColumn, UnknownEnumLiteral, Veto1, Veto2,
                             lint_codebook, load_fixture_codebook, parse_codebook,
                             serialize_codebook, validate)

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

    def test_accepts_bytes_and_files(self):
        text = f"{HEADER}\n{AL_ROW}\n"
        assert len(parse_codebook(text.encode())) == 1
        assert len(parse_codebook(io.BytesIO(text.encode()))) == 1

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
        with pytest.raises(CodebookError, match=r"row \('AL', '2020'\): 1[57] cells, expected 16"):
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
            issue_sets.append({(key, msg) for key, msg in lint_codebook(text)})
        assert all(s == issue_sets[0] for s in issue_sets)
        assert issue_sets[0]  # the bad rows are reported

    def test_duplicate_reported_by_key(self):
        text = f"{HEADER}\n{AL_ROW}\n{AL_ROW}\n"
        issues = lint_codebook(text)
        assert (("AL", "2020"), "duplicate-key") in issues


def test_codebook_rejects_duplicates_directly():
    row = load_fixture_codebook().rows[0]
    with pytest.raises(DuplicateKey):
        Codebook((row, row))


def test_mirrored_swaps_parties():
    process = make_process()
    mirrored = process.mirrored()
    assert mirrored.drawer_control is PartyControl.DEMOCRATS
    assert mirrored.court_control is PartyControl.DEMOCRATS
    assert mirrored.mirrored() == process
