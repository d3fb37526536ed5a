"""Backward-induction solver for the two-round redistricting game.

Each state's process instantiates the same prototypical tree: a drawer
proposes a plan bias in [-4, 4] (or stalemates), up to two veto players
react, a veto triggers one redraw round, a second veto (or a drawer
stalemate) hands the map to the stalemate chain, and every enacted plan
passes through the post-enactment court machinery. Republicans maximize
the expected bias, Democrats minimize it; everything else is a move by
nature parametrized by :class:`~leeway.nature.GameParameters`.

Continuous proposal choices are optimized on a uniform grid over the bias
scale with one symmetric local refinement pass around the best grid point.
The refinement grid and all tie-breaking rules are mirror-symmetric, so
relabeling the parties and negating biases negates the equilibrium value
exactly (in floating point) for states without VRA exposure.

All prior draws of one (process, assignment) are solved as one batch:
:func:`solve_batch` carries the draws as (D, 1) parameter columns through a
single vectorized backward induction, with grid optima and tie-breaking
taken per draw, and returns the solved tree as per-draw arrays; its
``result(d)`` is bitwise equal to :func:`solve` on draw d alone. The table
builders sample their draws once per call and share them across every row.

The tree is written once, as one method per node kind: the stalemate
chain, a proposal passing the veto players, and the round-2 subgame. Each
returns the node's value; handed a column of equilibrium-path mass, the
same call also routes that mass to the final-drawer buckets. The grid
optimizer calls the nodes for values; one walk from the root along the
chosen actions then yields the path probabilities. Partisan veto
decisions are recorded wherever a proposal is evaluated on the base grid,
which gives the veto thresholds; they are worked out when first read. The
round-1, round-2 and resolver optimizers all evaluate the court machinery
on the same base grid, so the tree computes it once and keeps it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import nature
from .codebook import (Codebook, Drawer, FinalDrawer, PartyControl,
                       StateProcess, Stalemate1, Stalemate2, Veto1, Veto2)
from .errors import DomainError, NotApplicable
from .nature import BIAS_MAX, BIAS_MIN, CourtContext, GameParameters, PriorSpec

STALEMATE = "stalemate"

_BUCKETS = ("legislature", "commission", "court")

_THRESHOLD_KEYS = ("round1_veto1", "round1_veto2", "round2_veto1", "round2_veto2")

_PARTISAN = (PartyControl.DEMOCRATS, PartyControl.REPUBLICANS)


@dataclass(frozen=True)
class ControlAssignment:
    """Party control of each decision node in the game tree."""

    drawer: PartyControl
    veto1: PartyControl
    veto2: PartyControl
    stalemate1: PartyControl
    stalemate2: PartyControl
    court: PartyControl

    @classmethod
    def realized(cls, process: StateProcess) -> "ControlAssignment":
        return cls(
            drawer=process.drawer_control,
            veto1=process.veto1_control,
            veto2=process.veto2_control,
            stalemate1=process.stalemate1_control,
            stalemate2=process.stalemate2_control,
            court=process.court_control,
        )

    @classmethod
    def uniform(cls, process: StateProcess, party: PartyControl) -> "ControlAssignment":
        """Hand every partisan node to one party.

        Only nodes already controlled by Democrats or Republicans are
        reassigned; nonpartisan, split, and uncontrolled nodes keep their
        coding, and court control is never touched.
        """
        if party not in _PARTISAN:
            raise DomainError("uniform assignment requires a major party")

        def override(control: PartyControl) -> PartyControl:
            return party if control in _PARTISAN else control

        base = cls.realized(process)
        return cls(
            drawer=override(base.drawer),
            veto1=override(base.veto1),
            veto2=override(base.veto2),
            stalemate1=override(base.stalemate1),
            stalemate2=override(base.stalemate2),
            court=base.court,
        )


@dataclass(frozen=True)
class OptimizationGrid:
    """Uniform bias grid plus an optional local refinement pass."""

    step: float = 0.05
    refine: bool = True
    refine_factor: int = 20

    def __post_init__(self):
        if not 0 < self.step <= (BIAS_MAX - BIAS_MIN) / 2:
            raise DomainError(f"grid step {self.step} out of range")
        if self.refine_factor < 2:
            raise DomainError("refine_factor must be at least 2")

    def points(self) -> np.ndarray:
        # Built symmetrically around zero so that mirrored problems are
        # evaluated at exactly negated abscissae.
        n_half = round(BIAS_MAX / self.step)
        pos = np.arange(1, n_half + 1) * (BIAS_MAX / n_half)
        return np.concatenate([-pos[::-1], [0.0], pos])

    def refine_points(self, center: float) -> np.ndarray:
        offsets = np.arange(-self.refine_factor, self.refine_factor + 1) * (
            self.step / self.refine_factor)
        return np.clip(center + offsets, BIAS_MIN, BIAS_MAX)


@dataclass(frozen=True)
class EquilibriumResult:
    """Subgame-perfect value and equilibrium-path diagnostics."""

    value: float
    path_probs: dict
    round2_proposal: Union[float, str, None]
    veto_thresholds: dict


@dataclass(frozen=True)
class LeewayScores:
    """Prior-averaged equilibrium values for one process."""

    realized: float
    maximum: float
    n_draws: int


def _argopt(values: np.ndarray, party: PartyControl) -> np.ndarray:
    """Per-row index of the player's best value; ties go to the most favorable bias.

    ``values`` has one row per draw. Republicans take the largest bias
    among exact ties, Democrats the smallest, which keeps tie-breaking
    mirror-symmetric.
    """
    signed = nature.party_sign(party) * values
    ties = signed == signed.max(axis=1, keepdims=True)
    if party is PartyControl.REPUBLICANS:
        return ties.shape[1] - 1 - np.argmax(ties[:, ::-1], axis=1)
    return np.argmax(ties, axis=1)


def _carries(mass) -> bool:
    """Whether any draw carries path mass; the value-only walk passes the float 0.0."""
    return mass != 0.0 if isinstance(mass, float) else mass.any()


class _TreeEvaluator:
    """The game tree of one (process, assignment), evaluated over D draws at once.

    The fields of ``theta`` are (D, 1) columns, so every bias argument
    broadcasts against them: the base grid is a (1, G) row, refinement
    points are (D, n) with one row per draw, and a per-draw bias is a
    (D, 1) column. Every value comes back with one row per draw.
    """

    def __init__(self, process: StateProcess, assignment: ControlAssignment,
                 theta: GameParameters, grid: OptimizationGrid):
        if process.drawer is Drawer.NA:
            raise NotApplicable(f"{process.key}: single-district state has no game")
        if not isinstance(assignment, ControlAssignment):
            raise DomainError("assignment must be a ControlAssignment")
        if assignment.drawer is PartyControl.NA:
            raise DomainError("drawer node has no controlling coding")

        self.process = process
        self.assignment = assignment
        self.theta = theta
        self.grid = grid
        self.n_draws = len(theta.chal_poss_conf)
        self.base = grid.points()[None, :]
        self.ctx = CourtContext(
            court_review=process.court_review,
            court_control=assignment.court,
            preclearance=process.preclearance,
        )
        self.drawer_bucket = ("legislature" if process.drawer is Drawer.LEGISLATURE
                              else "commission")

        # Veto nodes in play order. mode: absent | partisan | split | prob.
        self.vetoes = [
            self._veto_node(process.veto1, Veto1.NA, assignment.veto1,
                            voters=process.veto1 is Veto1.VOTERS),
            self._veto_node(process.veto2, Veto2.NA, assignment.veto2, voters=False),
        ]
        self.can_veto = any(mode in ("partisan", "prob") for mode, _ in self.vetoes)

        # Stalemate chain links with a body; court/unclear links resolve
        # terminally, so anything after them is unreachable.
        self.chain = []
        if process.stalemate1 is not Stalemate1.NA:
            self.chain.append((self._link_kind(process.stalemate1), assignment.stalemate1))
        if process.stalemate2 is not Stalemate2.NA:
            self.chain.append((self._link_kind(process.stalemate2), assignment.stalemate2))

        # Per-draw optima as (D, 1) columns: (proposal, value).
        self._resolver_opt: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._round2_propose: Union[tuple[np.ndarray, np.ndarray], None] = None
        # Partisan veto decisions on the base grid, for the threshold diagnostics.
        self.decisions: dict[str, np.ndarray] = {}
        # Equilibrium-path mass per final-drawer bucket.
        self.acc = {b: np.zeros((self.n_draws, 1)) for b in _BUCKETS}

    @staticmethod
    def _veto_node(body, na, control, voters):
        if body is na:
            return ("absent", control)
        if voters or control in (PartyControl.NONPARTISANS, PartyControl.NA):
            return ("prob", control)
        if control is PartyControl.SPLIT:
            return ("split", control)
        return ("partisan", control)

    @staticmethod
    def _link_kind(body) -> str:
        return {
            Stalemate1.COURT: "court", Stalemate2.COURT: "court",
            Stalemate1.UNCLEAR: "unclear", Stalemate2.UNCLEAR: "unclear",
            Stalemate1.COMMISSION: "commission",
            Stalemate1.COMMISSION_STAFF: "commission",
            Stalemate2.LEGISLATURE: "legislature",
        }[body]

    # -- game-tree nodes -----------------------------------------------------
    #
    # Each node method returns the node's value with one row per draw. Given
    # a ``mass`` column, it also adds the draws' equilibrium-path mass to the
    # final-drawer buckets in ``self.acc``, in play order; the default mass
    # of 0.0 evaluates the value alone, and a subtree with no mass is not
    # walked. A branch a draw does not take carries +0.0 mass for that
    # draw, so one walk over all draws leaves each draw's sums as a walk of
    # that draw alone would.

    def exp_court(self, x):
        if x is self.base:
            return self._base_court
        return nature.exp_court(x, self.ctx, self.theta)

    @functools.cached_property
    def _base_court(self):
        """The court machinery on the base grid, shared by every grid optimizer of the tree."""
        return nature.exp_court(self.base, self.ctx, self.theta)

    def _settle(self, court, mass, bucket: str):
        """Route mass through the court machinery of an enacted plan."""
        if _carries(mass):
            self.acc[bucket] += mass * court.pr_survive
            self.acc["court"] += mass * court.pr_redraw

    def _resolver_optimum(self, k: int, party: PartyControl):
        if k not in self._resolver_opt:
            self._resolver_opt[k] = self._optimize(lambda y: self.exp_court(y).value, party)
        return self._resolver_opt[k]

    def stalemate(self, anchor, mass=0.0, k: int = 0):
        """Value of entering the stalemate chain at link k.

        A split link goes on down the chain with the split probability,
        and that mass is routed before the mass of its own enactment.
        """
        if k >= len(self.chain) or self.chain[k][0] in ("court", "unclear"):
            if _carries(mass):
                self.acc["court"] += mass
            return nature.stalemate_default(anchor, self.assignment.court,
                                            self.assignment.drawer, self.theta)
        kind, control = self.chain[k]
        bucket = "commission" if kind == "commission" else "legislature"
        if control in _PARTISAN:
            x_opt, value = self._resolver_optimum(k, control)
            if _carries(mass):
                self._settle(self.exp_court(x_opt), mass, bucket)
            return value
        proposal = nature.stalemate_default(anchor, control, self.assignment.drawer, self.theta)
        if control is PartyControl.SPLIT:
            p = self.theta.stale_split_prob
            rest = self.stalemate(anchor, mass * p, k + 1)
            court = self.exp_court(proposal)
            self._settle(court, mass * (1.0 - p), bucket)
            return p * rest + (1.0 - p) * court.value
        court = self.exp_court(proposal)
        self._settle(court, mass, bucket)
        return court.value

    def plan(self, x, round_: int, mass=0.0):
        """Value of a round-1 or round-2 proposal x after the veto players react.

        A veto leads to the round-2 subgame in round 1 and to the stalemate
        chain in round 2. Partisan players veto only when that strictly
        improves their side; ties pass. Mass goes to veto1's subtree, then
        to veto2's, then to the enacted plan. Partisan veto decisions on the
        base grid are kept for the threshold diagnostics. With no node that
        can veto (each absent or split), the subgame is not evaluated.
        """
        court = self.exp_court(x)
        if not self.can_veto:
            self._settle(court, mass, self.drawer_bucket)
            return court.value
        subgame = self.round2 if round_ == 1 else self.stalemate
        veto_value = subgame(x)
        stage = court.value
        decided, q = {}, None
        for index in (1, 0):
            mode, control = self.vetoes[index]
            if mode == "partisan":
                decided[index] = nature.party_sign(control) * (veto_value - stage) > 0.0
                stage = np.where(decided[index], veto_value, stage)
                if x is self.base:
                    self.decisions[f"round{round_}_veto{index + 1}"] = decided[index]
            elif mode == "prob":
                if q is None:
                    q = nature.pr_veto_nonpartisan(x, self.theta)
                stage = q * veto_value + (1.0 - q) * stage
        if _carries(mass):
            for index in (0, 1):
                mode = self.vetoes[index][0]
                if mode == "partisan":
                    vetoed = np.where(decided[index], mass, 0.0)
                    mass = np.where(decided[index], 0.0, mass)
                elif mode == "prob":
                    vetoed, mass = mass * q, mass * (1.0 - q)
                else:
                    continue
                if _carries(vetoed):
                    subgame(x, vetoed)
            self._settle(court, mass, self.drawer_bucket)
        return stage

    def _choice(self, stale, propose):
        """A partisan drawer stalemates only where that strictly improves its side.

        Returns the draws that stalemate and the value of the drawer's choice.
        """
        stalemates = nature.party_sign(self.assignment.drawer) * (stale - propose) > 0.0
        return stalemates, np.where(stalemates, stale, propose)

    def _partisan_round2(self, x_prev):
        """Best round-2 proposal of a partisan drawer, where it stalemates instead, and the value."""
        if self._round2_propose is None:
            self._round2_propose = self._optimize(lambda y: self.plan(y, 2),
                                                  self.assignment.drawer)
        x2, opt = self._round2_propose
        stalemates, value = self._choice(self.stalemate(x_prev), opt)
        return x2, stalemates, value

    def round2(self, x_prev, mass=0.0):
        """Value of the round-2 subgame given the vetoed proposal x_prev."""
        mode = self.assignment.drawer
        if mode in _PARTISAN:
            x2, stalemates, value = self._partisan_round2(x_prev)
            if _carries(mass):
                self.stalemate(x_prev, np.where(stalemates, mass, 0.0))
                self.plan(x2, 2, np.where(stalemates, 0.0, mass))
            return value
        proposal = nature.round2_nonpartisan_proposal(x_prev, self._veto_parties(), self.theta)
        if mode is PartyControl.SPLIT:
            p = self.theta.stale_split_prob
            stale = self.stalemate(x_prev, mass * p)
            return p * stale + (1.0 - p) * self.plan(proposal, 2, mass * (1.0 - p))
        return self.plan(proposal, 2, mass)

    def _veto_parties(self):
        first = self.assignment.veto1 if self.vetoes[0][0] != "absent" else None
        second = self.assignment.veto2 if self.vetoes[1][0] != "absent" else None
        return (first, second)

    def _optimize(self, fn, party: PartyControl) -> tuple[np.ndarray, np.ndarray]:
        """Per-draw grid optimum of fn for the given party, with local refinement.

        Returns the optimal proposals and values as (D, 1) columns.
        """
        rows = np.arange(self.n_draws)
        values = fn(self.base)
        i = _argopt(values, party)
        best_x, best_v = self.base[0, i], values[rows, i]
        if self.grid.refine:
            fine = self.grid.refine_points(best_x[:, None])
            fine_values = fn(fine)
            j = _argopt(fine_values, party)
            best_x, best_v = fine[rows, j], fine_values[rows, j]
        return best_x[:, None], best_v[:, None]

    # -- top level ------------------------------------------------------------

    def solve(self) -> "_TreeEvaluator":
        """Solve every draw and fill the per-draw arrays; returns self."""
        mode = self.assignment.drawer
        zero = np.zeros((self.n_draws, 1))

        # ``action`` is the round-1 proposal, 0.0 where the drawer stalemates.
        if mode in _PARTISAN:
            x1, propose_value = self._optimize(lambda x: self.plan(x, 1), mode)
            stalemates, value = self._choice(self.stalemate(zero), propose_value)
            action = np.where(stalemates, 0.0, x1)
            self.stalemate(zero, np.where(stalemates, 1.0, 0.0))
            self.plan(action, 1, np.where(stalemates, 0.0, 1.0))
        else:
            action = zero
            if mode is PartyControl.SPLIT:
                p = self.theta.stale_split_prob
                value = p * self.stalemate(zero, p) + (1.0 - p) * self.plan(zero, 1, 1.0 - p)
            else:
                value = self.plan(zero, 1, 1.0)

        self.values = value[:, 0]
        self.path_probs = np.hstack([self.acc[b] for b in _BUCKETS])
        x2, stalemates = np.full_like(zero, np.nan), np.zeros_like(zero, dtype=bool)
        if any(m != "absent" for m, _ in self.vetoes):
            if mode in _PARTISAN:
                x2, stalemates, _ = self._partisan_round2(action)
            else:
                x2 = nature.round2_nonpartisan_proposal(action, self._veto_parties(), self.theta)
        self.round2_proposal, self.stalemates = x2[:, 0], stalemates[:, 0]
        return self

    @functools.cached_property
    def veto_thresholds(self) -> np.ndarray:
        """(D, 4) midpoint of the first base-grid cell where each partisan veto flips.

        Columns in ``_THRESHOLD_KEYS`` order, NaN where none. A drawer that is
        not partisan never visits the base grid, so its passes run here.
        """
        if (self.assignment.drawer not in _PARTISAN
                and any(m == "partisan" for m, _ in self.vetoes)):
            self.plan(self.base, 2)
            self.plan(self.base, 1)
        out = np.full((self.n_draws, len(_THRESHOLD_KEYS)), np.nan)
        mids = (self.base[0, :-1] + self.base[0, 1:]) / 2.0
        for col, key in enumerate(_THRESHOLD_KEYS):
            if key in self.decisions:
                flips = self.decisions[key][:, :-1] != self.decisions[key][:, 1:]
                out[:, col] = np.where(flips.any(axis=1), mids[np.argmax(flips, axis=1)], np.nan)
        return out

    def result(self, d: int) -> EquilibriumResult:
        """Draw d of a solved tree, with NaN as None and a drawer stalemate as STALEMATE."""
        def scalar(x):
            return None if np.isnan(x) else float(x)

        thresholds = self.veto_thresholds[d]
        return EquilibriumResult(
            value=float(self.values[d]),
            path_probs={b: float(p) for b, p in zip(_BUCKETS, self.path_probs[d])},
            round2_proposal=STALEMATE if self.stalemates[d] else scalar(self.round2_proposal[d]),
            veto_thresholds={k: scalar(t) for k, t in zip(_THRESHOLD_KEYS, thresholds)},
        )


def solve_batch(process: StateProcess, assignment: ControlAssignment,
                thetas: GameParameters,
                grid: OptimizationGrid | None = None) -> _TreeEvaluator:
    """Solve one state's game for a batch of draws in one vectorized pass.

    ``thetas`` holds D draws as (D, 1) columns (see
    :func:`~leeway.nature.stack_parameters`). The solved tree holds
    ``values`` (D,), ``path_probs`` (D, 3) in bucket order,
    ``round2_proposal`` (D,), NaN where no veto node exists, and
    ``stalemates`` (D,); ``veto_thresholds`` (D, 4), NaN where there is no
    threshold, is worked out on first read. ``result(d)`` is :func:`solve`
    on draw d alone.
    """
    grid = grid or OptimizationGrid()
    return _TreeEvaluator(process, assignment, thetas, grid).solve()


def solve(process: StateProcess, assignment: ControlAssignment,
          theta: GameParameters, grid: OptimizationGrid | None = None) -> EquilibriumResult:
    """Solve one state's game by backward induction for one draw.

    The one-draw case of :func:`solve_batch`. Raises NotApplicable for
    single-district (drawer=NA) processes and DomainError for malformed
    assignments. Use a grid of at least 81 points for production results
    (the default has 161); coarser grids serve verification against the
    brute-force oracle.
    """
    return solve_batch(process, assignment, nature.stack_parameters([theta]), grid).result(0)


def brute_force_solve(process: StateProcess, assignment: ControlAssignment,
                      theta: GameParameters, coarse_grid: OptimizationGrid) -> float:
    """Minimax value by exhaustive enumeration on a coarse grid.

    An independent scalar re-implementation of the game: every drawer
    action and veto decision is enumerated with plain loops and the
    expectations are summed directly, with no grid refinement and no shared
    traversal code with :func:`solve`. Used as a verification oracle.
    """
    points = [float(p) for p in coarse_grid.points()]
    if len(points) > 9:
        raise DomainError("brute force is restricted to grids of at most 9 points")
    if process.drawer is Drawer.NA:
        raise NotApplicable(f"{process.key}: single-district state has no game")

    ctx = CourtContext(process.court_review, assignment.court, process.preclearance)
    theta_ = theta

    def enacted(x: float) -> float:
        return float(nature.exp_court(x, ctx, theta_).value)

    chain = []
    if process.stalemate1 is not Stalemate1.NA:
        chain.append((_TreeEvaluator._link_kind(process.stalemate1), assignment.stalemate1))
    if process.stalemate2 is not Stalemate2.NA:
        chain.append((_TreeEvaluator._link_kind(process.stalemate2), assignment.stalemate2))

    def stalemate(anchor: float, k: int = 0) -> float:
        if k >= len(chain):
            return float(nature.stalemate_default(anchor, assignment.court,
                                                  assignment.drawer, theta_))
        kind, control = chain[k]
        if kind in ("court", "unclear"):
            return float(nature.stalemate_default(anchor, assignment.court,
                                                  assignment.drawer, theta_))
        if control in _PARTISAN:
            candidates = [enacted(y) for y in points]
            return max(candidates) if control is PartyControl.REPUBLICANS else min(candidates)
        settled = enacted(float(nature.stalemate_default(anchor, control,
                                                         assignment.drawer, theta_)))
        if control is PartyControl.SPLIT:
            p = theta_.stale_split_prob
            return p * stalemate(anchor, k + 1) + (1.0 - p) * settled
        return settled

    nodes = [
        _TreeEvaluator._veto_node(process.veto1, Veto1.NA, assignment.veto1,
                                  voters=process.veto1 is Veto1.VOTERS),
        _TreeEvaluator._veto_node(process.veto2, Veto2.NA, assignment.veto2, voters=False),
    ]

    def vetoed_value(x: float, accept: float, veto: float, index: int) -> float:
        mode, control = nodes[index]
        if mode in ("absent", "split"):
            return accept
        if mode == "partisan":
            # Both options enumerated; the player keeps the better one,
            # accepting on ties.
            options = [accept, veto]
            signed = [nature.party_sign(control) * v for v in options]
            return options[1] if signed[1] > signed[0] else options[0]
        q = float(nature.pr_veto_nonpartisan(x, theta_))
        return q * veto + (1.0 - q) * accept

    def through_vetoes(x: float, veto_cont: float) -> float:
        stage = vetoed_value(x, enacted(x), veto_cont, 1)
        return vetoed_value(x, stage, veto_cont, 0)

    def round2(x_prev: float) -> float:
        mode = assignment.drawer
        if mode in _PARTISAN:
            candidates = [through_vetoes(y, stalemate(y)) for y in points]
            candidates.append(stalemate(x_prev))
            return max(candidates) if mode is PartyControl.REPUBLICANS else min(candidates)
        first = assignment.veto1 if nodes[0][0] != "absent" else None
        second = assignment.veto2 if nodes[1][0] != "absent" else None
        y = float(nature.round2_nonpartisan_proposal(x_prev, (first, second), theta_))
        settled = through_vetoes(y, stalemate(y))
        if mode is PartyControl.SPLIT:
            p = theta_.stale_split_prob
            return p * stalemate(x_prev) + (1.0 - p) * settled
        return settled

    def round1(x: float) -> float:
        return through_vetoes(x, round2(x))

    mode = assignment.drawer
    if mode in _PARTISAN:
        candidates = [round1(x) for x in points]
        candidates.append(stalemate(0.0))
        return max(candidates) if mode is PartyControl.REPUBLICANS else min(candidates)
    if mode is PartyControl.SPLIT:
        p = theta_.stale_split_prob
        return p * stalemate(0.0) + (1.0 - p) * round1(0.0)
    return round1(0.0)


def sample_draws(prior: PriorSpec, seed: int, n_draws: int) -> GameParameters:
    """Draws 0 .. n_draws-1 of the prior as one batch for :func:`solve_batch`."""
    if n_draws < 1:
        raise DomainError("n_draws must be at least 1")
    return nature.stack_parameters([nature.sample_parameters(prior, seed, i)
                                    for i in range(n_draws)])


def _leeway_scores(process: StateProcess, thetas: GameParameters, grid: OptimizationGrid
                   ) -> tuple[LeewayScores, _TreeEvaluator]:
    """A process's scores and its realized solve, which the scores average."""
    realized = solve_batch(process, ControlAssignment.realized(process), thetas, grid)
    uniform = ControlAssignment.uniform(process, PartyControl.DEMOCRATS)
    scores = LeewayScores(
        realized=float(realized.values.mean()),
        maximum=abs(float(solve_batch(process, uniform, thetas, grid).values.mean())),
        n_draws=len(thetas.chal_poss_conf),
    )
    return scores, realized


def leeway(process: StateProcess, prior: PriorSpec, n_draws: int = 100,
           seed: int = 0, grid: OptimizationGrid | None = None) -> LeewayScores:
    """Prior-averaged equilibrium scores for one process.

    ``realized`` averages the equilibrium under the coded party control;
    ``maximum`` is the magnitude of the average equilibrium after handing
    every partisan node to the Democrats (reported unsigned). Single
    district processes raise NotApplicable.
    """
    thetas = sample_draws(prior, seed, n_draws)
    if process.drawer is Drawer.NA:
        raise NotApplicable(f"{process.key}: single-district state has no leeway score")
    return _leeway_scores(process, thetas, grid or OptimizationGrid())[0]


def _scored_rows(codebook: Codebook, prior: PriorSpec, n_draws: int, seed: int,
                 grid: OptimizationGrid | None):
    """Yield (row, scores, realized solve) for every solvable row, in codebook order.

    All rows share one batch of draws, and the ``realized`` score averages
    the realized solve.
    """
    grid = grid or OptimizationGrid()
    thetas = sample_draws(prior, seed, n_draws)
    for row in codebook:
        if row.drawer is not Drawer.NA:
            yield (row, *_leeway_scores(row, thetas, grid))


def leeway_table(codebook: Codebook, prior: PriorSpec, n_draws: int = 100,
                 seed: int = 0, grid: OptimizationGrid | None = None
                 ) -> list[tuple[StateProcess, LeewayScores]]:
    """Leeway scores for every solvable row, in codebook order.

    All rows share one batch of draws.
    """
    return [(row, scores)
            for row, scores, _ in _scored_rows(codebook, prior, n_draws, seed, grid)]


_ACTUAL_BUCKET = {
    FinalDrawer.LEGISLATURE: "legislature",
    FinalDrawer.COMMISSION: "commission",
    FinalDrawer.GOVERNOR: "legislature",  # unattested; treated as an elected-branch enactment
    FinalDrawer.COURT_MASTER: "court",
    FinalDrawer.COURT_D_REMEDY: "court",
    FinalDrawer.COURT_R_REMEDY: "court",
}


@dataclass(frozen=True)
class PathTable:
    """Equilibrium-path probabilities pooled over prior draws."""

    state_probs: dict      # (state, cycle) -> {bucket: probability}
    actual: dict           # (state, cycle) -> bucket from the final_drawer coding

    def modal(self, key) -> str:
        probs = self.state_probs[key]
        return max(_BUCKETS, key=lambda b: probs[b])

    def cross_tab(self) -> dict:
        """Actual final drawer (rows) vs pooled equilibrium mass (columns)."""
        table = {row: {col: 0.0 for col in _BUCKETS} for row in _BUCKETS}
        for key, probs in self.state_probs.items():
            row = self.actual[key]
            for col in _BUCKETS:
                table[row][col] += probs[col]
        return table


def path_table(codebook: Codebook, prior: PriorSpec, n_draws: int = 100,
               seed: int = 0, grid: OptimizationGrid | None = None) -> PathTable:
    """Pooled final-drawer path probabilities for every codebook row.

    A surviving enacted plan counts toward its proposing institution;
    court redraws, VRA remedies, and court or unclear stalemate
    resolutions count toward the court; commission and legislative
    stalemate resolvers count toward their institution.
    """
    grid = grid or OptimizationGrid()
    rows = list(codebook)
    thetas = sample_draws(prior, seed, n_draws)
    state_probs = {}
    for row in rows:
        if row.drawer is Drawer.NA:
            raise NotApplicable(f"{row.key}: cannot build path table over single-district rows")
        solved = solve_batch(row, ControlAssignment.realized(row), thetas, grid)
        pooled = solved.path_probs.sum(axis=0)  # row by row, as a per-draw loop adds
        state_probs[row.key] = {b: float(p) / n_draws for b, p in zip(_BUCKETS, pooled)}
    return PathTable(
        state_probs=state_probs,
        actual={r.key: _ACTUAL_BUCKET[r.final_drawer] for r in rows},
    )


def equilibrium_matrix(codebook: Codebook, prior: PriorSpec, n_draws: int,
                       seed: int = 0, grid: OptimizationGrid | None = None) -> np.ndarray:
    """Realized equilibrium values, shape (n_draws, n_states)."""
    grid = grid or OptimizationGrid()
    thetas = sample_draws(prior, seed, n_draws)
    columns = [solve_batch(row, ControlAssignment.realized(row), thetas, grid).values
               for row in codebook if row.drawer is not Drawer.NA]
    return np.array(columns, dtype=float).reshape(len(columns), n_draws).T


def pairwise_spearman_mean(matrix: np.ndarray) -> float:
    """Average Spearman correlation over all pairs of rows.

    Ties are handled by average ranks. Rows with no variation carry no
    ranking information; pairs involving them are skipped.
    """
    from scipy import stats  # deferred: importing scipy.stats costs about a second

    n = matrix.shape[0]
    if n < 2:
        raise DomainError("need at least 2 draws")
    rho = stats.spearmanr(matrix, axis=1).statistic
    if np.ndim(rho) == 0:  # spearmanr collapses the 2-row case to a scalar
        rho = np.array([[1.0, rho], [rho, 1.0]])
    upper = rho[np.triu_indices(n, k=1)]
    valid = upper[~np.isnan(upper)]
    if valid.size == 0:
        raise DomainError("no draw pair had rankable variation")
    return float(valid.mean())


def spearman_stability(codebook: Codebook, prior: PriorSpec, n_draws: int = 100,
                       seed: int = 0, grid: OptimizationGrid | None = None) -> float:
    """Average pairwise rank correlation of state equilibria across draws."""
    if n_draws < 2:
        raise DomainError("stability requires at least 2 draws")
    matrix = equilibrium_matrix(codebook, prior, n_draws, seed, grid)
    if matrix.shape[1] < 5:
        raise DomainError("stability requires at least 5 states")
    return pairwise_spearman_mean(matrix)
