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
for states without VRA exposure, relabeling the parties negates the
equilibrium value and the round-2 proposal exactly up to the sign of zero,
and leaves the path mass unchanged bit for bit.

All prior draws of a call are solved as one batch, through a
:class:`BatchContext` of the draws (:func:`sample_draws`) and a grid: it
carries the draws as (D, 1) parameter columns through vectorized backward
induction, with grid optima and tie-breaking taken per draw. The caller
builds the batch and hands it to each consumer (scores, path table, rank
stability, counterfactual doses), so consumers handed one batch share its
draws and its solved trees. A tree reads only a :class:`TreeKey` of the
process, so each distinct tree is solved once. A key is its shape, its
signs and its court: the node kinds with each Democratic or Republican
control read as "partisan", the party sign of each step that depends on
party, and the court context. The batch solves the keys of one shape that
it is asked for together in one traversal over their stacked rows,
members x draws: each row carries its member's signs, read element by
element, and each member's block of rows is evaluated in its own court
context. A pass holds at most ``_PASS_CELLS`` cells per array, members x
draws x grid points; a larger group takes several passes, and a tree that
alone exceeds the budget takes one of its own. So trees stack only at up
to 50 draws on the default grid; at the command line's default of 100
draws every tree is a pass of one. Every step works row by row, so a tree
solved in a pass is bitwise equal to the tree solved alone.
:meth:`BatchContext.games` is the one place that skips single-district
rows. :func:`solve` is the one-draw case; a solved tree's ``result(d)`` is
bitwise equal to it on draw d alone.

The tree is written once, as one method per node kind: the drawer, the
veto players, the stalemate chain. The drawer node serves both rounds, and
each grid optimum is worked out once per node and tree. Each method
returns the node's value; handed a column of equilibrium-path mass, the
same call also routes that mass to the final-drawer buckets. The grid
optimizer calls the nodes for values; one walk from the root along the
chosen actions then yields the path probabilities. Partisan veto
decisions are recorded wherever a proposal is evaluated on the base grid,
which gives the veto thresholds; they are worked out when first read. A
drawer that is not partisan never visits the base grid, so its pass walks
it for the thresholds of all its members, and only when they are read.

The court machinery depends only on the :class:`CourtContext` and the bias
it is evaluated at, so each :class:`BatchContext` runs each distinct court
evaluation once, the base row included, and every tree of the call reads
that copy: trees that share a context reach the same per-draw optima, and
a pass stacks its members' kept blocks. The per-draw grids that a
stalemate default or a nonpartisan round-2 proposal builds from the base
row are evaluated afresh each time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import nature
from .codebook import (Codebook, Drawer, FinalDrawer, PartyControl, StateProcess, Stalemate1,
                       Stalemate2, Veto1, Veto2, check)
from .errors import DomainError, NotApplicable, allocate
from .nature import BIAS_MAX, BIAS_MIN, CourtContext, GameParameters, PriorSpec

STALEMATE = "stalemate"

_BUCKETS = ("legislature", "commission", "court")

_THRESHOLD_KEYS = ("round1_veto1", "round1_veto2", "round2_veto1", "round2_veto2")

_PARTISAN = (PartyControl.DEMOCRATS, PartyControl.REPUBLICANS)

# Finest grid step (8,001 points): finer grids need more memory than a solve should.
MIN_GRID_STEP = 0.001

# Points per grid step in the local refinement around a grid optimum.
_REFINE_FACTOR = 20

# Cells, members x draws x grid points, that one array of a stacked pass may
# hold: 128 KiB of float64, under glibc malloc's default mmap threshold, so
# freed arrays are reused from the heap. Larger passes measured slower than
# trees alone at 100 draws. So trees stack only where draws x grid points is
# at most 8,192: on the default grid of 161 points, up to 50 draws (5 trees a
# pass at 20 draws). At the command line's default of 100 draws, and on the
# finest grid, each tree runs alone.
_PASS_CELLS = 1 << 14


# The node controls that :func:`uniform_control` may hand to one party.
_NODE_CONTROLS = ("drawer_control", "veto1_control", "veto2_control",
                  "stalemate1_control", "stalemate2_control")


def uniform_control(process: StateProcess, party: PartyControl) -> StateProcess:
    """The process with every partisan node handed to one party.

    Only nodes already controlled by Democrats or Republicans are
    reassigned; nonpartisan, split, and uncontrolled nodes keep their
    coding, and court control is never touched.
    """
    if party not in _PARTISAN:
        raise DomainError("uniform control requires a major party")
    return replace(process, **{name: party for name in _NODE_CONTROLS
                               if getattr(process, name) in _PARTISAN})


def _veto_node(body, na, control, voters):
    if body is na:
        return ("absent", None)
    if voters or control in (PartyControl.NONPARTISANS, PartyControl.NA):
        return ("prob", control)
    if control is PartyControl.SPLIT:
        return ("split", control)
    return ("partisan", control)


_LINK_KIND = {
    Stalemate1.COURT: "court", Stalemate2.COURT: "court",
    Stalemate1.UNCLEAR: "unclear", Stalemate2.UNCLEAR: "unclear",
    Stalemate1.COMMISSION: "commission",
    Stalemate1.COMMISSION_STAFF: "commission",
    Stalemate2.LEGISLATURE: "legislature",
}


def _role(control):
    """A node's control as its tree reads it: Democrats and Republicans read "partisan"."""
    return "partisan" if control in _PARTISAN else control


@dataclass(frozen=True)
class TreeKey:
    """What the game tree of one process reads, and nothing else: its shape, signs and court.

    Rows with equal keys have bitwise-equal solves, so a batch solves each
    key once. The key leaves out the state, cycle and final drawer, the
    control of an absent veto node, and every stalemate link from the first
    court or unclear link on, which ends the chain whatever follows. Which
    party holds a node enters the key only as the
    :func:`~leeway.nature.party_sign` of each step it pushes, so keys of one
    shape build the same tree, and a party mirror negates every sign.
    """

    shape: tuple       # the drawer's bucket and role, then (mode, role) per veto node,
                       # mode absent | partisan | split | prob, then (kind, role) per
                       # stalemate link with a body; past the last, the court resolves
    signs: tuple       # the drawer's, each veto player's and their mean (a nonpartisan
                       # redraw's weight), then the lean of each link and of the court's
                       # default: the node's own party's sign, else the drawer's
    court: CourtContext

    @classmethod
    def of(cls, process: StateProcess) -> "TreeKey":
        """The key of a process; raises for a row with no game or one that fails ``check``."""
        if process.drawer is Drawer.NA:
            raise NotApplicable(f"{process.key}: single-district state has no game")
        check(process)
        drawer = nature.party_sign(process.drawer_control)
        shape = ["legislature" if process.drawer is Drawer.LEGISLATURE else "commission",
                 _role(process.drawer_control)]
        signs = [drawer]
        for mode, control in (_veto_node(process.veto1, Veto1.NA, process.veto1_control,
                                         voters=process.veto1 is Veto1.VOTERS),
                              _veto_node(process.veto2, Veto2.NA, process.veto2_control,
                                         voters=False)):
            shape.append((mode, _role(control)))
            signs.append(nature.party_sign(control))
        signs.append((signs[1] + signs[2]) / 2.0)
        for body, na, control in ((process.stalemate1, Stalemate1.NA, process.stalemate1_control),
                                  (process.stalemate2, Stalemate2.NA, process.stalemate2_control)):
            if body is na:
                continue
            kind = _LINK_KIND[body]
            if kind in ("court", "unclear"):
                break
            shape.append((kind, _role(control)))
            signs.append(nature.party_sign(control) or drawer)
        signs.append(nature.party_sign(process.court_control) or drawer)
        return cls(tuple(shape), tuple(signs),
                   CourtContext(process.court_review, process.court_control, process.preclearance))


@dataclass(frozen=True)
class OptimizationGrid:
    """Uniform bias grid plus an optional local refinement pass."""

    step: float = 0.05
    refine: bool = True

    def __post_init__(self):
        if not MIN_GRID_STEP <= self.step <= (BIAS_MAX - BIAS_MIN) / 2:
            raise DomainError(f"grid step {self.step} out of range")

    def points(self) -> np.ndarray:
        # Built symmetrically around zero so that mirrored problems are
        # evaluated at exactly negated abscissae.
        n_half = round(BIAS_MAX / self.step)
        pos = np.arange(1, n_half + 1) * (BIAS_MAX / n_half)
        return np.concatenate([-pos[::-1], [0.0], pos])

    @functools.cached_property
    def base(self) -> np.ndarray:
        """:meth:`points` as one read-only (1, G) row, shared by every tree solved on this grid."""
        row = self.points()[None, :]
        row.flags.writeable = False
        return row

    def refine_points(self, center: float) -> np.ndarray:
        offsets = np.arange(-_REFINE_FACTOR, _REFINE_FACTOR + 1) * (self.step / _REFINE_FACTOR)
        return nature.clamp_bias(center + offsets)


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


def _argopt(values: np.ndarray, sign) -> np.ndarray:
    """Per-row index of the player's best value; ties go to the most favorable bias.

    ``values`` has one row per draw, and ``sign`` is the player's
    :func:`~leeway.nature.party_sign`: one float for every row, or a column
    of one sign per row. Republican rows take the largest bias among exact
    ties, Democratic rows the smallest, which keeps tie-breaking
    mirror-symmetric.
    """
    signed = sign * values
    ties = signed == signed.max(axis=1, keepdims=True)
    if isinstance(sign, float):
        return _last(ties) if sign > 0.0 else np.argmax(ties, axis=1)
    return np.where(sign[:, 0] > 0.0, _last(ties), np.argmax(ties, axis=1))


def _last(ties: np.ndarray) -> np.ndarray:
    """Per-row index of the last True."""
    return ties.shape[1] - 1 - np.argmax(ties[:, ::-1], axis=1)


def _carries(mass) -> bool:
    """Whether any row carries path mass; the value-only walk passes the float 0.0."""
    return mass != 0.0 if isinstance(mass, float) else mass.any()


def _stacked(blocks: list) -> nature.ExpCourt:
    """A pass's court blocks, one per member, as one ExpCourt; a field None at a grid stays None."""
    if len(blocks) == 1:
        return blocks[0]
    return nature.ExpCourt(*[None if parts[0] is None else np.concatenate(parts)
                             for parts in zip(*blocks)])


class _TreeEvaluator:
    """The game trees of M keys of one shape, evaluated over their M x D rows at once.

    The rows stack one block of D draws per member, so every array has M x D
    rows: the draws are (M x D, 1) columns, the batch's (D, 1) columns
    repeated once per member, and every bias argument broadcasts against
    them: the base grid is a (1, G) row, refinement points are (M x D, n)
    with one row per draw, and a per-draw bias is a column. The members share
    the key's ``shape``, which gives the tree's structure; the rest of the key
    is carried per member: its ``signs``, read row by row wherever a step
    depends on party, and its ``court``, in which its block is evaluated.
    """

    def __init__(self, keys: list[TreeKey], thetas: GameParameters, grid: OptimizationGrid,
                 courts: dict):
        self.keys = keys
        # The tree's structure: the shape every member shares.
        self.bucket, self.drawer_role, *nodes = keys[0].shape
        self.vetoes, self.chain = nodes[:2], nodes[2:]
        # The batch's parts, not the batch: a reference cycle would outlive the call.
        self.draws = thetas
        self.grid = grid
        self.courts = courts
        self.n_draws = len(thetas.chal_poss_conf)
        self.n_rows = len(keys) * self.n_draws
        self.theta = thetas if len(keys) == 1 else thetas.tiled(len(keys))
        self.base = self.grid.base
        self.can_veto = any(mode in ("partisan", "prob") for mode, _ in self.vetoes)
        # Each of the keys' signs as one float where every member has the same,
        # else as a column of each member's sign repeated over its draws.
        (self.drawer_sign, veto1, veto2, self.round2_weight,
         *self.leans) = [column[0] if column.count(column[0]) == len(column)
                         else np.repeat(column, self.n_draws)[:, None]
                         for column in zip(*(key.signs for key in keys))]
        self.veto_signs = (veto1, veto2)

        # Per-row grid optimum of each optimizing node, ("stalemate", k) or
        # ("drawer", round), as columns: (proposal, value).
        self._optima: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # Partisan veto decisions on the base grid, for the threshold diagnostics.
        self.decisions: dict[str, np.ndarray] = {}
        # Equilibrium-path mass per final-drawer bucket.
        self.acc = {b: np.zeros((self.n_rows, 1)) for b in _BUCKETS}
        # The first row of each member's block.
        self.starts = range(0, self.n_rows, self.n_draws)

    # Once per pass: each link's stalemate-default offset (the court's last) and the round-2 shift.
    offsets = functools.cached_property(
        lambda self: [lean * self.theta.out_nonp_part_adv for lean in self.leans])
    round2_offset = functools.cached_property(
        lambda self: self.round2_weight * self.theta.veto_nonp_shift)

    # -- game-tree nodes -----------------------------------------------------
    #
    # Each node method returns the node's value with one row per draw of each
    # member. Given a ``mass`` column, it also adds the rows' equilibrium-path
    # mass to the final-drawer buckets in ``self.acc``, in play order; the
    # default mass of 0.0 evaluates the value alone, and a subtree where no
    # row has mass is not walked. A branch a row does not take carries +0.0
    # mass for that row, so one walk over all rows leaves each row's sums as
    # a walk of that member's draw alone would.

    def exp_court(self, x):
        """The court machinery at x, each member's block of rows in its own court context.

        Every block but a per-draw (D, G) grid built from the base row is
        kept in the batch's ``courts``, keyed by court context, shape and
        raw bytes (so -0.0 and 0.0 are distinct keys), and its arrays are
        made read-only: a hit hands the same arrays to every tree of the
        batch that asks; at a grid, where no mass goes, a block is its value
        alone. A pass of several members stacks their blocks into one ExpCourt
        of its rows, and stacks the base row's once for its solve and its walks.
        """
        if x is self.base:
            return self._base_court
        if len(self.keys) == 1:
            return self._court(x, self.keys[0].court)
        return _stacked([self._court(x[start:start + self.n_draws], key.court)
                         for start, key in zip(self.starts, self.keys)])

    @functools.cached_property
    def _base_court(self):
        return _stacked([self._court(self.base, key.court) for key in self.keys])

    def _court(self, x, ctx: CourtContext) -> nature.ExpCourt:
        if x is not self.base and x.shape[1] == self.base.shape[1]:
            return nature.ExpCourt(nature.exp_court(x, ctx, self.draws).value, None, None)
        key = (ctx, x.shape, x.tobytes())
        court = self.courts.get(key)
        if court is None:
            court = nature.exp_court(x, ctx, self.draws)
            for array in court:
                array.flags.writeable = False
            if x.shape[1] > 1:
                court = nature.ExpCourt(court.value, None, None)
            self.courts[key] = court
        return court

    def _settle(self, court, mass, bucket: str):
        """Route mass through the court machinery of an enacted plan."""
        if _carries(mass):
            self.acc[bucket] += mass * court.pr_survive
            self.acc["court"] += mass * court.pr_redraw

    def stalemate(self, anchor, mass=0.0, k: int = 0):
        """Value of entering the stalemate chain at link k.

        A split link goes on down the chain with the split probability,
        and that mass is routed before the mass of its own enactment.
        Past the last link the court resolves, leaning by its own party.
        """
        if k >= len(self.chain):
            if _carries(mass):
                self.acc["court"] += mass
            return nature.stalemate_toward(anchor, self.offsets[k], self.theta)
        kind, role = self.chain[k]
        bucket = "commission" if kind == "commission" else "legislature"
        if role == "partisan":
            x_opt, value = self._optimum(("stalemate", k), lambda y: self.exp_court(y).value,
                                         self.leans[k])
            if _carries(mass):
                self._settle(self.exp_court(x_opt), mass, bucket)
            return value
        proposal = nature.stalemate_toward(anchor, self.offsets[k], self.theta)
        if role is PartyControl.SPLIT:
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

        A veto hands the map to the round-2 drawer in round 1 and to the
        stalemate chain in round 2. Partisan players veto only when that
        strictly improves their side; ties pass. Mass goes to veto1's
        subtree, then to veto2's, then to the enacted plan. Partisan veto
        decisions on the base grid are kept for the threshold diagnostics.
        With no node that can veto (each absent or split), the subgame is
        not evaluated.
        """
        court = self.exp_court(x)
        if not self.can_veto:
            self._settle(court, mass, self.bucket)
            return court.value
        subgame = functools.partial(self.drawer, 2) if round_ == 1 else self.stalemate
        veto_value = subgame(x)
        stage = court.value
        decided, q = {}, None
        for index in (1, 0):
            mode = self.vetoes[index][0]
            if mode == "partisan":
                decided[index] = self.veto_signs[index] * (veto_value - stage) > 0.0
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
            self._settle(court, mass, self.bucket)
        return stage

    def _partisan_move(self, round_: int, anchor):
        """A partisan drawer's best proposal, the rows where it stalemates instead, and the value.

        It stalemates only where that strictly improves its side.
        """
        x, propose = self._optimum(("drawer", round_), lambda y: self.plan(y, round_),
                                   self.drawer_sign)
        stale = self.stalemate(anchor)
        stalemates = self.drawer_sign * (stale - propose) > 0.0
        return x, stalemates, np.where(stalemates, stale, propose)

    def drawer(self, round_: int, anchor, mass=0.0):
        """Value of the drawer's move in round 1 or 2: propose a plan, or stalemate.

        ``anchor`` is the status quo in round 1 and the vetoed proposal in
        round 2; the stalemate chain is entered at it. A partisan drawer
        proposes its optimum of :meth:`plan`; a nonpartisan one proposes the
        anchor in round 1 and the nonpartisan redraw in round 2; a split one
        stalemates with the split probability, whose mass is routed first.
        A partisan drawer's root walk records ``action``, the round-1
        proposal with 0.0 where it stalemates, which anchors the round-2
        diagnostics.
        """
        if self.drawer_role == "partisan":
            x, stalemates, value = self._partisan_move(round_, anchor)
            if _carries(mass):
                self.stalemate(anchor, np.where(stalemates, mass, 0.0))
                self.plan(x, round_, np.where(stalemates, 0.0, mass))
                if round_ == 1:
                    self.action = np.where(stalemates, 0.0, x)
            return value
        proposal = anchor if round_ == 1 else nature.clamp_bias(anchor + self.round2_offset)
        if self.drawer_role is PartyControl.SPLIT:
            p = self.theta.stale_split_prob
            stale = self.stalemate(anchor, mass * p)
            return p * stale + (1.0 - p) * self.plan(proposal, round_, mass * (1.0 - p))
        return self.plan(proposal, round_, mass)

    def _optimum(self, node: tuple, fn, sign) -> tuple[np.ndarray, np.ndarray]:
        """Per-row grid optimum of fn for the player of the given sign, with local refinement.

        Worked out once per node and pass; returns the optimal proposals and
        values as columns.
        """
        if node in self._optima:
            return self._optima[node]
        rows = np.arange(self.n_rows)
        values = fn(self.base)
        i = _argopt(values, sign)
        best_x, best_v = self.base[0, i], values[rows, i]
        if self.grid.refine:
            fine = self.grid.refine_points(best_x[:, None])
            fine_values = fn(fine)
            j = _argopt(fine_values, sign)
            best_x, best_v = fine[rows, j], fine_values[rows, j]
        self._optima[node] = best_x[:, None], best_v[:, None]
        return self._optima[node]

    # -- top level ------------------------------------------------------------

    def solve(self) -> "_TreeEvaluator":
        """Solve every row and fill the per-row arrays; returns self."""
        zero = np.zeros((self.n_rows, 1))
        self.values = self.drawer(1, zero, 1.0)[:, 0]
        self.path_probs = np.hstack([self.acc[b] for b in _BUCKETS])
        x2, stalemates = np.full_like(zero, np.nan), np.zeros_like(zero, dtype=bool)
        if any(m != "absent" for m, _ in self.vetoes):
            if self.drawer_role == "partisan":
                x2, stalemates, _ = self._partisan_move(2, self.action)
            else:
                x2 = nature.clamp_bias(zero + self.round2_offset)
        self.round2_proposal, self.stalemates = x2[:, 0], stalemates[:, 0]
        # A stacked base row is as large as any array of the pass and would
        # live as long as the batch; the threshold walks stack it again.
        self.__dict__.pop("_base_court", None)
        return self

    @functools.cached_property
    def veto_thresholds(self) -> np.ndarray:
        """(M x D, 4) midpoint of the first base-grid cell where each partisan veto flips.

        Columns in ``_THRESHOLD_KEYS`` order, NaN where none. A drawer that is
        not partisan never visits the base grid, so its walks run here.
        """
        if (self.drawer_role != "partisan"
                and any(m == "partisan" for m, _ in self.vetoes)):
            self.plan(self.base, 2)
            self.plan(self.base, 1)
            self.__dict__.pop("_base_court", None)  # as in solve
        out = np.full((self.n_rows, len(_THRESHOLD_KEYS)), np.nan)
        mids = (self.base[0, :-1] + self.base[0, 1:]) / 2.0
        for col, key in enumerate(_THRESHOLD_KEYS):
            if key in self.decisions:
                flips = self.decisions[key][:, :-1] != self.decisions[key][:, 1:]
                out[:, col] = np.where(flips.any(axis=1), mids[np.argmax(flips, axis=1)], np.nan)
        return out


class SolvedTree:
    """The solved tree of one :class:`TreeKey`: its member's rows of a stacked pass.

    ``values`` (D,), ``path_probs`` (D, 3) in bucket order,
    ``round2_proposal`` (D,), NaN where no veto node exists, and
    ``stalemates`` (D,) are views of the pass's arrays. ``veto_thresholds``
    (D, 4), NaN where there is no threshold, and the base-grid veto
    ``decisions`` behind them are worked out for the whole pass on first read.
    """

    def __init__(self, key: TreeKey, tree: _TreeEvaluator, first: int):
        self.key = key
        self._tree, self._rows = tree, slice(first, first + tree.n_draws)
        self.values = tree.values[self._rows]
        self.path_probs = tree.path_probs[self._rows]
        self.round2_proposal = tree.round2_proposal[self._rows]
        self.stalemates = tree.stalemates[self._rows]

    @property
    def veto_thresholds(self) -> np.ndarray:
        return self._tree.veto_thresholds[self._rows]

    @property
    def decisions(self) -> dict[str, np.ndarray]:
        """The (D, G) partisan veto decisions on the base grid, by threshold key."""
        return {key: decided[self._rows] for key, decided in self._tree.decisions.items()}

    def result(self, d: int) -> EquilibriumResult:
        """Draw d of a solved tree, with NaN as None and a drawer stalemate as STALEMATE."""
        def scalar(x: float):
            return None if x != x else x

        round2 = STALEMATE if self.stalemates[d] else scalar(self.round2_proposal[d].item())
        return EquilibriumResult(
            value=self.values[d].item(),
            path_probs=dict(zip(_BUCKETS, self.path_probs[d].tolist())),
            round2_proposal=round2,
            veto_thresholds={key: scalar(t) for key, t
                             in zip(_THRESHOLD_KEYS, self.veto_thresholds[d].tolist())})


def solve(process: StateProcess, theta: GameParameters,
          grid: OptimizationGrid | None = None) -> EquilibriumResult:
    """Solve one state's game by backward induction for one draw.

    The one-draw case of :class:`BatchContext`. Raises NotApplicable for
    single-district (drawer=NA) processes. Use a grid of at least 81 points
    for production results (the default has 161); coarser grids serve
    verification against the brute-force oracle.
    """
    return BatchContext(nature.stack_parameters([theta]), grid).solve(process).result(0)


def brute_force_solve(process: StateProcess, theta: GameParameters,
                      coarse_grid: OptimizationGrid) -> float:
    """Minimax value by exhaustive enumeration on a coarse grid.

    An independent scalar re-implementation of the game: every drawer
    action and veto decision is enumerated with plain loops and the
    expectations are summed directly, with no grid refinement and no shared
    traversal code with :func:`solve`; it reads the node rules off the
    codebook enums itself, not from the tree key. Used as a verification oracle.
    """
    points = [float(p) for p in coarse_grid.points()]
    if len(points) > 9:
        raise DomainError("brute force is restricted to grids of at most 9 points")
    if process.drawer is Drawer.NA:
        raise NotApplicable(f"{process.key}: single-district state has no game")

    ctx = CourtContext(process.court_review, process.court_control, process.preclearance)
    theta_ = theta

    def enacted(x: float) -> float:
        return float(nature.exp_court(x, ctx, theta_).value)

    chain = [link for link in ((process.stalemate1, process.stalemate1_control),
                               (process.stalemate2, process.stalemate2_control))
             if link[0] not in (Stalemate1.NA, Stalemate2.NA)]

    def stalemate(anchor: float, k: int = 0) -> float:
        if k >= len(chain):
            return float(nature.stalemate_default(anchor, process.court_control,
                                                  process.drawer_control, theta_))
        body, control = chain[k]
        if body in (Stalemate1.COURT, Stalemate1.UNCLEAR, Stalemate2.COURT, Stalemate2.UNCLEAR):
            return float(nature.stalemate_default(anchor, process.court_control,
                                                  process.drawer_control, theta_))
        if control in _PARTISAN:
            candidates = [enacted(y) for y in points]
            return max(candidates) if control is PartyControl.REPUBLICANS else min(candidates)
        settled = enacted(float(nature.stalemate_default(anchor, control,
                                                         process.drawer_control, theta_)))
        if control is PartyControl.SPLIT:
            p = theta_.stale_split_prob
            return p * stalemate(anchor, k + 1) + (1.0 - p) * settled
        return settled

    vetoes = [(process.veto1, process.veto1_control), (process.veto2, process.veto2_control)]

    def vetoed_value(x: float, accept: float, veto: float, index: int) -> float:
        body, control = vetoes[index]
        if body in (Veto1.NA, Veto2.NA):
            return accept
        # Voters veto by a probabilistic vote whichever party the row codes
        # as holding the node, as do nonpartisan and uncoded holders.
        if body is Veto1.VOTERS or control in (PartyControl.NONPARTISANS, PartyControl.NA):
            q = float(nature.pr_veto_nonpartisan(x, theta_))
            return q * veto + (1.0 - q) * accept
        if control is PartyControl.SPLIT:
            return accept
        # Both options enumerated; the player keeps the better one,
        # accepting on ties.
        options = [accept, veto]
        signed = [nature.party_sign(control) * v for v in options]
        return options[1] if signed[1] > signed[0] else options[0]

    def through_vetoes(x: float, veto_cont: float) -> float:
        stage = vetoed_value(x, enacted(x), veto_cont, 1)
        return vetoed_value(x, stage, veto_cont, 0)

    def round2(x_prev: float) -> float:
        mode = process.drawer_control
        if mode in _PARTISAN:
            candidates = [through_vetoes(y, stalemate(y)) for y in points]
            candidates.append(stalemate(x_prev))
            return max(candidates) if mode is PartyControl.REPUBLICANS else min(candidates)
        first = process.veto1_control if process.veto1 is not Veto1.NA else None
        second = process.veto2_control if process.veto2 is not Veto2.NA else None
        y = float(nature.round2_nonpartisan_proposal(x_prev, (first, second), theta_))
        settled = through_vetoes(y, stalemate(y))
        if mode is PartyControl.SPLIT:
            p = theta_.stale_split_prob
            return p * stalemate(x_prev) + (1.0 - p) * settled
        return settled

    def round1(x: float) -> float:
        return through_vetoes(x, round2(x))

    mode = process.drawer_control
    if mode in _PARTISAN:
        candidates = [round1(x) for x in points]
        candidates.append(stalemate(0.0))
        return max(candidates) if mode is PartyControl.REPUBLICANS else min(candidates)
    if mode is PartyControl.SPLIT:
        p = theta_.stale_split_prob
        return p * stalemate(0.0) + (1.0 - p) * round1(0.0)
    return round1(0.0)


def sample_draws(prior: PriorSpec, seed: int, n_draws: int) -> GameParameters:
    """Draws 0 .. n_draws-1 of the prior as one batch for :class:`BatchContext`.

    Bitwise equal to stacking :func:`~leeway.nature.sample_parameters` for
    each draw, but the values go straight into (D, 1) columns, allocated
    before the first draw, and the batch is range-checked once.
    """
    if n_draws < 1:
        raise DomainError("n_draws must be at least 1")
    table = allocate((len(prior.dists), n_draws), f"{n_draws} prior draws (--draws)")
    for i in range(n_draws):
        table[:, i] = nature._prior_draw(prior, seed, i)
    return GameParameters(**{name: column[:, None]
                             for (name, _), column in zip(prior.dists, table)})


class BatchContext:
    """A run's prior draws and grid, solving the trees of one shape together in stacked passes.

    ``thetas`` holds D draws as (D, 1) columns (see :func:`sample_draws`), and
    ``n_draws`` is D. Processes that share a :class:`TreeKey` share one
    :class:`SolvedTree`, also across the calls handed the batch, such as the
    templates of one counterfactual comparison, and the per-row check,
    ``codebook.check``, runs on every row. The keys asked for together that
    are not solved yet are grouped by their ``shape``, and each group is
    solved in one traversal over its stacked rows, with each member's
    ``signs`` and ``court`` carried per row (see :class:`_TreeEvaluator`). A
    pass holds at most ``_PASS_CELLS`` (2**14) cells, members x draws x grid
    points, per array, 128 KiB of float64, so a larger group takes several
    passes and a member that alone exceeds the budget takes one of its own:
    on the default grid, trees stack only at up to 50 draws. ``trees`` maps
    each key to its solved tree, and ``passes`` lists the keys of each
    traversal in order. ``courts`` keeps each court evaluation of the call
    by (:class:`CourtContext`, shape, raw bytes of the bias), so each
    distinct one, the base row included, runs once and every tree reads the
    kept, read-only arrays (see :meth:`_TreeEvaluator.exp_court`).
    """

    def __init__(self, thetas: GameParameters, grid: OptimizationGrid | None = None):
        self.thetas = thetas
        self.n_draws = len(thetas.chal_poss_conf)
        self.grid = grid or OptimizationGrid()
        self.trees: dict[TreeKey, SolvedTree] = {}
        self.courts: dict[tuple, nature.ExpCourt] = {}
        self.passes: list[tuple[TreeKey, ...]] = []

    def solve(self, process: StateProcess) -> SolvedTree:
        """The solved tree of one process; a key not solved yet is a group of one."""
        return self._solved([TreeKey.of(process)])[0]

    def games(self, rows, *variants):
        """Yield (row, its solved tree, one per variant) for each row with a game, in order.

        Each variant maps a row to another process to solve with it, such as
        :func:`uniform_control` or a reform. Every key is solved before the
        first yield, so the rows' trees are grouped into passes together.
        The one place that skips single-district rows (drawer NA).
        """
        rows = [row for row in rows if row.drawer is not Drawer.NA]
        width = 1 + len(variants)
        solved = self._solved([TreeKey.of(process) for row in rows
                               for process in (row, *(variant(row) for variant in variants))])
        for i, row in enumerate(rows):
            yield (row, *solved[width * i:width * (i + 1)])

    def _solved(self, keys: list[TreeKey]) -> list[SolvedTree]:
        """The solved tree of each key; the new keys of each shape take as few passes as fit."""
        shapes: dict[tuple, list[TreeKey]] = {}
        for key in dict.fromkeys(keys):
            if key not in self.trees:
                shapes.setdefault(key.shape, []).append(key)
        member_cells = self.n_draws * self.grid.base.size
        per_pass = max(1, _PASS_CELLS // member_cells)
        for group in shapes.values():
            for start in range(0, len(group), per_pass):
                members = group[start:start + per_pass]
                tree = _TreeEvaluator(members, self.thetas, self.grid, self.courts).solve()
                self.passes.append(tuple(members))
                self.trees.update((key, SolvedTree(key, tree, first))
                                  for key, first in zip(members, tree.starts))
        return [self.trees[key] for key in keys]


def leeway(process: StateProcess, batch: BatchContext) -> LeewayScores:
    """Prior-averaged equilibrium scores for one process over the batch's draws.

    ``realized`` averages the equilibrium under the coded party control;
    ``maximum`` is the magnitude of the average equilibrium after handing
    every partisan node to the Democrats (:func:`uniform_control`), reported
    unsigned. Single-district processes raise NotApplicable before any tree
    is solved.
    """
    if process.drawer is Drawer.NA:
        raise NotApplicable(f"{process.key}: single-district state has no leeway score")
    return leeway_table(Codebook((process,)), batch)[0][1]


def _scored_rows(codebook: Codebook, batch: BatchContext):
    """Yield (row, scores, realized solve) for every solvable row, in codebook order.

    The batch solves each row's realized and all-Democratic trees together,
    and the ``realized`` score averages the realized solve.
    """
    for row, realized, uniform in batch.games(
            codebook, lambda row: uniform_control(row, PartyControl.DEMOCRATS)):
        yield row, LeewayScores(realized=float(realized.values.mean()),
                                maximum=abs(float(uniform.values.mean())),
                                n_draws=batch.n_draws), realized


def leeway_table(codebook: Codebook, batch: BatchContext
                 ) -> list[tuple[StateProcess, LeewayScores]]:
    """Leeway scores for every solvable row, in codebook order."""
    return [(row, scores) for row, scores, _ in _scored_rows(codebook, batch)]


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


def path_table(codebook: Codebook, batch: BatchContext) -> PathTable:
    """Pooled final-drawer path probabilities for every solvable row, in codebook order.

    A surviving enacted plan counts toward its proposing institution;
    court redraws, VRA remedies, and court or unclear stalemate
    resolutions count toward the court; commission and legislative
    stalemate resolvers count toward their institution. Single-district
    rows have no game and are left out, of ``actual`` too.
    """
    state_probs, actual = {}, {}
    for row, tree in batch.games(codebook):
        pooled = tree.path_probs.sum(axis=0)  # row by row, as a per-draw loop adds
        state_probs[row.key] = {b: float(p) / batch.n_draws for b, p in zip(_BUCKETS, pooled)}
        actual[row.key] = _ACTUAL_BUCKET[row.final_drawer]
    return PathTable(state_probs=state_probs, actual=actual)


def equilibrium_matrix(codebook: Codebook, batch: BatchContext) -> np.ndarray:
    """Realized equilibrium values, shape (n_draws, n_states)."""
    columns = [tree.values for _, tree in batch.games(codebook)]
    return np.array(columns, dtype=float).reshape(len(columns), batch.n_draws).T


def _average_ranks(matrix: np.ndarray) -> np.ndarray:
    """Each row's 1-based ranks, ties at their mean: scipy's ``rankdata(axis=1)``, bit for bit."""
    return np.array([(np.searchsorted(s, row, "left") + np.searchsorted(s, row, "right") + 1) / 2
                     for s, row in zip(np.sort(matrix, axis=1), matrix)])


def pairwise_spearman_mean(matrix: np.ndarray) -> float:
    """Average Spearman correlation over all pairs of rows.

    Ties are handled by average ranks. Rows with no variation carry no
    ranking information; pairs involving them are skipped.
    """
    n = matrix.shape[0]
    if n < 2:
        raise DomainError("need at least 2 draws")
    # What scipy's spearmanr computes, except that spearmanr answers a single
    # NaN for the whole matrix when any row is constant; here only that
    # row's pairs are NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.corrcoef(_average_ranks(matrix))
    upper = rho[np.triu_indices(n, k=1)]
    valid = upper[~np.isnan(upper)]
    if valid.size == 0:
        raise DomainError("no draw pair had rankable variation")
    return float(valid.mean())


def spearman_stability(codebook: Codebook, batch: BatchContext) -> float:
    """Average pairwise rank correlation of state equilibria across the batch's draws."""
    if batch.n_draws < 2:
        raise DomainError("stability requires at least 2 draws")
    matrix = equilibrium_matrix(codebook, batch)
    if matrix.shape[1] < 5:
        raise DomainError("stability requires at least 5 states")
    return pairwise_spearman_mean(matrix)
