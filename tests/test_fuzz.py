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
from leeway.solver import (BatchContext, OptimizationGrid, TreeKey, brute_force_solve,
                           path_table, sample_draws, solve, uniform_control)

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
    valid = [p for p in candidates if validate(p) == []]
    # Single-district rows (drawer=NA) validate but have no game by design.
    accepted = [p for p in valid if p.drawer is not Drawer.NA]
    assert len(accepted) >= len(processes) + 100  # the loose generator reaches valid rows
    batch = BatchContext(sample_draws(PRIOR, 782, 3))
    for process in accepted:
        for controlled in (process, uniform_control(process, PartyControl.DEMOCRATS),
                           uniform_control(process, PartyControl.REPUBLICANS)):
            values = batch.solve(controlled).values
            assert len(values) == 3 and all(-4.0 <= v <= 4.0 for v in values), controlled
    # The path table reads final_drawer too, so every accepted row must have one.
    table = path_table(Codebook(tuple(valid)), BatchContext(sample_draws(PRIOR, 782, 3)))
    assert list(table.state_probs) == list(table.actual) == [p.key for p in accepted]


def test_solver_bounds_and_mass_conservation(processes):
    rng = np.random.default_rng(778)
    for process in processes:
        theta = sample_parameters(PRIOR, 778, int(rng.integers(10**6)))
        result = solve(process, theta)
        assert -4.0 <= result.value <= 4.0, process
        assert sum(result.path_probs.values()) == pytest.approx(1.0, abs=1e-9), process
        assert all(0.0 <= p <= 1.0 for p in result.path_probs.values()), process


def test_brute_force_agreement_everywhere(processes):
    rng = np.random.default_rng(779)
    for process in processes:
        theta = sample_parameters(PRIOR, 779, int(rng.integers(10**6)))
        fast = solve(process, theta, COARSE).value
        slow = brute_force_solve(process, theta, COARSE)
        assert fast == pytest.approx(slow, abs=1e-9), process


def test_mirror_exactness_without_preclearance():
    # Mirroring negates the values and round-2 proposals exactly up to the
    # sign of zero (== reads -0.0 as 0.0), and keeps the drawer's stalemates,
    # the path mass and the base-grid veto decisions, reversed along the
    # symmetric grid, bit for bit.
    pairs, signed_zeros = 0, 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        thetas = sample_draws(PRIOR, seed, 30)
        for process in (random_process(rng, i) for i in range(100)):
            if process.preclearance:
                continue
            tree, mirror = (BatchContext(thetas).solve(p) for p in (process, process.mirrored()))
            for solved in (tree, mirror):  # reading the thresholds fills every decision
                assert solved.veto_thresholds.shape == (30, 4)
            assert np.array_equal(tree.values, -mirror.values), process
            assert np.array_equal(tree.round2_proposal, -mirror.round2_proposal,
                                  equal_nan=True), process
            assert np.array_equal(tree.stalemates, mirror.stalemates), process
            assert tree.path_probs.tobytes() == mirror.path_probs.tobytes(), process
            assert tree.decisions.keys() == mirror.decisions.keys(), process
            for key, decided in tree.decisions.items():
                assert np.array_equal(decided, mirror.decisions[key][:, ::-1]), (process, key)
            pairs += 1
            signed_zeros += tree.values.tobytes() != (-mirror.values).tobytes()
    assert pairs >= 250 and signed_zeros > 0  # the sign of a zero does differ


@pytest.mark.parametrize("n_draws", [1, 3])
def test_stacked_solve_equals_solve_alone(processes, n_draws):
    # One batch solves every row, its party mirror and both uniform controls
    # of each, grouped by shape into stacked passes. Each tree must equal its
    # key solved alone, bit for bit, the signs of zeros included.
    rows = [*processes, *(dataclasses.replace(p.mirrored(), state_id=f"M{p.state_id}")
                          for p in processes)]
    assert any(row.preclearance for row in rows)
    thetas = sample_draws(PRIOR, 784, n_draws)
    batch = BatchContext(thetas)
    alone = {}
    for row, *trees in batch.games(Codebook(tuple(rows)),
                                   lambda p: uniform_control(p, PartyControl.DEMOCRATS),
                                   lambda p: uniform_control(p, PartyControl.REPUBLICANS)):
        for process, tree in zip((row, uniform_control(row, PartyControl.DEMOCRATS),
                                  uniform_control(row, PartyControl.REPUBLICANS)), trees):
            alone.setdefault(tree.key, process)
    assert len(alone) == len(batch.trees)
    assert sum(len(members) for members in batch.passes if len(members) > 1) >= 100
    names = ("values", "path_probs", "round2_proposal", "stalemates", "veto_thresholds")
    for key, process in alone.items():
        stacked, single = batch.trees[key], BatchContext(thetas).solve(process)
        for name in names:
            assert getattr(stacked, name).tobytes() == getattr(single, name).tobytes(), \
                (process, name)


def test_control_monotonicity(processes):
    rng = np.random.default_rng(781)
    for process in processes:
        theta = sample_parameters(PRIOR, 781, int(rng.integers(10**6)))
        vr = solve(uniform_control(process, PartyControl.REPUBLICANS), theta).value
        vx = solve(process, theta).value
        vd = solve(uniform_control(process, PartyControl.DEMOCRATS), theta).value
        assert vr >= vx >= vd, process


def _next(options, current):
    return options[(options.index(current) + 1) % len(options)]


def read_field_variants(p: StateProcess) -> list[StateProcess]:
    """Variants of p that each change one field its game tree reads."""
    replace = dataclasses.replace
    commission = (Stalemate1.COMMISSION, Stalemate1.COMMISSION_STAFF)
    out = [
        replace(p, drawer=_next((Drawer.LEGISLATURE, Drawer.COMMISSION), p.drawer)),
        replace(p, drawer_control=_next(_PARTIES, p.drawer_control)),
        replace(p, court_review=_next((CourtReview.YES, CourtReview.MAYBE, CourtReview.NO),
                                      p.court_review)),
        replace(p, preclearance=not p.preclearance),
    ]
    if p.court_control in _PARTIES:
        out.append(replace(p, court_control=_next(_PARTIES, p.court_control)))
    if p.veto1 in (Veto1.LEGISLATURE, Veto1.GOVERNOR):
        out.append(replace(p, veto1_control=_next(_PARTIES, p.veto1_control)))
    if p.veto1 is not Veto1.NA and p.veto2 is Veto2.NA:
        out.append(replace(p, veto1=Veto1.NA, veto1_control=PartyControl.NA))
    if p.veto2 is Veto2.GOVERNOR:
        out.append(replace(p, veto2_control=_next(_PARTIES, p.veto2_control)))
    if p.stalemate1 in commission:
        out.append(replace(p, stalemate1_control=_next(_PARTIES, p.stalemate1_control)))
        out.append(replace(p, stalemate1=Stalemate1.COURT))
        if p.stalemate2 is Stalemate2.LEGISLATURE:
            out.append(replace(p, stalemate2_control=_next(_PARTIES, p.stalemate2_control)))
    return out


def unread_field_twin(p: StateProcess) -> StateProcess:
    """A copy of p that differs only in fields its game tree does not read."""
    replace = dataclasses.replace
    twin = replace(p, state_id=f"T{p.state_id}", cycle=p.cycle - 10,
                   final_drawer=_next(tuple(FinalDrawer), p.final_drawer))
    if p.veto1 in (Veto1.LEGISLATURE, Veto1.GOVERNOR):
        twin = replace(twin, veto1=_next((Veto1.LEGISLATURE, Veto1.GOVERNOR), p.veto1))
    if p.stalemate1 in (Stalemate1.COMMISSION, Stalemate1.COMMISSION_STAFF):
        twin = replace(twin, stalemate1=_next((Stalemate1.COMMISSION,
                                                Stalemate1.COMMISSION_STAFF), p.stalemate1))
    elif p.stalemate1 in (Stalemate1.COURT, Stalemate1.UNCLEAR):
        # Nothing after a court or unclear link is reached.
        twin = replace(twin, stalemate1=_next((Stalemate1.COURT, Stalemate1.UNCLEAR),
                                               p.stalemate1),
                       stalemate2=_next(tuple(Stalemate2), p.stalemate2),
                       stalemate2_control=(PartyControl.NA if p.stalemate2 is not Stalemate2.NA
                                           else PartyControl.REPUBLICANS))
    return twin


def test_read_fields_change_the_tree_key(processes):
    for process in processes:
        key = TreeKey.of(process)
        for variant in read_field_variants(process):
            assert TreeKey.of(variant) != key, variant


def test_equal_tree_keys_solve_bitwise_equal(processes):
    # Rows sharing a key, whether twins differing in unread fields, read-field
    # variants or independent draws, must solve to the same bits, so the table
    # builders may solve each key once.
    thetas = sample_draws(PRIOR, 783, 3)
    pool = [*processes, *map(unread_field_twin, processes),
            *(v for p in processes for v in read_field_variants(p))]
    pool = [p for p in pool if validate(p) == []]
    groups = {}
    for process in pool:
        for controlled in (process, uniform_control(process, PartyControl.DEMOCRATS),
                           uniform_control(process, PartyControl.REPUBLICANS)):
            groups.setdefault(TreeKey.of(controlled), []).append(controlled)
    shared = [members for members in groups.values()
              if len({process.key for process in members}) > 1]
    assert len(shared) >= 300
    for members in shared:
        want = None
        for process in members:
            solved = BatchContext(thetas).solve(process)
            got = [a.tobytes() for a in (solved.values, solved.path_probs,
                                         solved.round2_proposal, solved.stalemates,
                                         solved.veto_thresholds)]
            want = want or got
            assert got == want, (members[0], process)
