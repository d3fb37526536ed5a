"""Randomized cross-checks over the space of valid processes.

A seeded generator builds structurally valid state processes covering
branch combinations the bundled fixture does not reach (voter vetoes on
commissions, staff resolvers, split-on-split chains, and so on), then
checks the solver's invariants and its agreement with the brute-force
oracle on every one of them. A second generator draws every cell from all
of its literals, NA included, to check that whatever ``validate`` accepts
the solver can solve.
"""

import dataclasses

import numpy as np
import pytest

from leeway.codebook import (Codebook, CourtReview, Drawer, FinalDrawer,
                             InvariantViolation, PartyControl, StateProcess,
                             Stalemate1, Stalemate2, Veto1, Veto2, parse_codebook,
                             serialize_codebook, validate)
from leeway.nature import PriorSpec, sample_parameters
from leeway.solver import (ControlAssignment, OptimizationGrid, brute_force_solve,
                           sample_draws, solve, solve_batch)

PRIOR = PriorSpec.default()
COARSE = OptimizationGrid(step=2.0, refine=False)

_PARTIES = (PartyControl.DEMOCRATS, PartyControl.REPUBLICANS, PartyControl.SPLIT,
            PartyControl.NONPARTISANS)


def random_process(rng: np.random.Generator, index: int) -> StateProcess:
    def pick(options):
        return options[rng.integers(len(options))]

    drawer = pick((Drawer.LEGISLATURE, Drawer.COMMISSION))
    drawer_control = pick(_PARTIES)

    veto1 = pick((Veto1.NA, Veto1.LEGISLATURE, Veto1.GOVERNOR, Veto1.VOTERS))
    if veto1 is Veto1.NA:
        veto1_control = PartyControl.NA
        veto2, veto2_control = Veto2.NA, PartyControl.NA
    else:
        veto1_control = (PartyControl.NA if veto1 is Veto1.VOTERS
                         else pick(_PARTIES))
        veto2 = pick((Veto2.NA, Veto2.GOVERNOR))
        veto2_control = PartyControl.NA if veto2 is Veto2.NA else pick(_PARTIES)

    court_review = pick((CourtReview.YES, CourtReview.MAYBE, CourtReview.NO))
    court_control = pick(_PARTIES)

    stalemate1 = pick(tuple(Stalemate1))
    if stalemate1 is Stalemate1.NA:
        stalemate1_control = PartyControl.NA
        stalemate2, stalemate2_control = Stalemate2.NA, PartyControl.NA
    else:
        stalemate1_control = (PartyControl.NA
                              if stalemate1 in (Stalemate1.UNCLEAR, Stalemate1.COURT)
                              and rng.integers(2)
                              else pick(_PARTIES))
        stalemate2 = pick(tuple(Stalemate2))
        stalemate2_control = (PartyControl.NA if stalemate2 is Stalemate2.NA
                              else pick(_PARTIES))

    return StateProcess(
        state_id=f"F{index:03d}", cycle=2020,
        drawer=drawer, drawer_control=drawer_control,
        veto1=veto1, veto1_control=veto1_control,
        veto2=veto2, veto2_control=veto2_control,
        court_review=court_review, court_control=court_control,
        stalemate1=stalemate1, stalemate1_control=stalemate1_control,
        stalemate2=stalemate2, stalemate2_control=stalemate2_control,
        final_drawer=FinalDrawer.LEGISLATURE,
        preclearance=bool(rng.integers(2)),
    )


def unconstrained_process(rng: np.random.Generator, index: int) -> StateProcess:
    def pick(enum_cls):
        members = tuple(enum_cls)
        return members[rng.integers(len(members))]

    return StateProcess(
        state_id=f"U{index:04d}", cycle=2020,
        drawer=pick(Drawer), drawer_control=pick(PartyControl),
        veto1=pick(Veto1), veto1_control=pick(PartyControl),
        veto2=pick(Veto2), veto2_control=pick(PartyControl),
        court_review=pick(CourtReview), court_control=pick(PartyControl),
        stalemate1=pick(Stalemate1), stalemate1_control=pick(PartyControl),
        stalemate2=pick(Stalemate2), stalemate2_control=pick(PartyControl),
        final_drawer=pick(FinalDrawer), preclearance=bool(rng.integers(2)),
    )


@pytest.fixture(scope="module")
def processes():
    rng = np.random.default_rng(777)
    return [random_process(rng, i) for i in range(120)]


def test_generated_processes_are_valid(processes):
    for process in processes:
        assert validate(process) == [], process


def test_round_trip_on_generated_codebook(processes):
    book = Codebook(tuple(processes))
    text = serialize_codebook(book)
    assert parse_codebook(text) == book


def test_missing_court_review_rejected_at_parse(processes):
    # A drawn row without court_review cannot be solved, so it must not
    # validate: the solver would fail on it only mid-run.
    for process in processes:
        unsolvable = dataclasses.replace(process, state_id=f"N{process.state_id}",
                                         court_review=CourtReview.NA)
        assert [v.rule for v in validate(unsolvable)] == ["court-review-missing"], process
        with pytest.raises(InvariantViolation) as err:
            parse_codebook(serialize_codebook(Codebook((process, unsolvable))))
        assert err.value.rule == "court-review-missing"
        assert err.value.row == unsolvable.key


def test_every_row_that_validates_solves(processes):
    rng = np.random.default_rng(782)
    candidates = [*processes, *(unconstrained_process(rng, i) for i in range(2000))]
    # Single-district rows (drawer=NA) validate but have no game by design.
    accepted = [p for p in candidates if validate(p) == [] and p.drawer is not Drawer.NA]
    assert len(accepted) >= len(processes) + 100  # the loose generator reaches valid rows
    thetas = sample_draws(PRIOR, 782, 3)
    for process in accepted:
        for assignment in (ControlAssignment.realized(process),
                           ControlAssignment.uniform(process, PartyControl.DEMOCRATS),
                           ControlAssignment.uniform(process, PartyControl.REPUBLICANS)):
            values = solve_batch(process, assignment, thetas).values
            assert len(values) == 3 and all(-4.0 <= v <= 4.0 for v in values), process


def test_solver_bounds_and_mass_conservation(processes):
    rng = np.random.default_rng(778)
    for process in processes:
        theta = sample_parameters(PRIOR, 778, int(rng.integers(10**6)))
        result = solve(process, ControlAssignment.realized(process), theta)
        assert -4.0 <= result.value <= 4.0, process
        assert sum(result.path_probs.values()) == pytest.approx(1.0, abs=1e-9), process
        assert all(0.0 <= p <= 1.0 for p in result.path_probs.values()), process


def test_brute_force_agreement_everywhere(processes):
    rng = np.random.default_rng(779)
    for process in processes:
        theta = sample_parameters(PRIOR, 779, int(rng.integers(10**6)))
        assignment = ControlAssignment.realized(process)
        fast = solve(process, assignment, theta, COARSE).value
        slow = brute_force_solve(process, assignment, theta, COARSE)
        assert fast == pytest.approx(slow, abs=1e-9), process


def test_mirror_exactness_without_preclearance(processes):
    rng = np.random.default_rng(780)
    for process in processes:
        if process.preclearance:
            continue
        theta = sample_parameters(PRIOR, 780, int(rng.integers(10**6)))
        mirrored = process.mirrored()
        v = solve(process, ControlAssignment.realized(process), theta).value
        w = solve(mirrored, ControlAssignment.realized(mirrored), theta).value
        assert v == -w, process


def test_control_monotonicity(processes):
    rng = np.random.default_rng(781)
    for process in processes:
        theta = sample_parameters(PRIOR, 781, int(rng.integers(10**6)))
        vr = solve(process, ControlAssignment.uniform(process, PartyControl.REPUBLICANS),
                   theta).value
        vx = solve(process, ControlAssignment.realized(process), theta).value
        vd = solve(process, ControlAssignment.uniform(process, PartyControl.DEMOCRATS),
                   theta).value
        assert vr >= vx >= vd, process
