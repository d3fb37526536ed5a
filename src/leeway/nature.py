"""Moves by nature in the redistricting game.

Nineteen parameters govern everything the two parties do not control:
whether and how courts entertain challenges to an enacted plan, what remedy
they order, federal VRA challenges in formerly precleared states, stalemate
resolution, nonpartisan veto behavior, and how nonpartisan drawers respond
to a veto. Each parameter has a default prior; a draw from the joint prior
is one complete game specification.

All bias arguments and outputs live on the [-4, 4] scale (positive favors
Republicans). Every function is numpy in, numpy out: it broadcasts its bias
argument against the parameter fields, which are floats for one draw or
(D, 1) columns for a batch of draws (:func:`stack_parameters`), so a (1, G)
grid row gives one row of values per draw. A scalar bias is the 0-d case of
the same code: it gives numpy scalars (or a 0-d array), never Python floats.

The terms that do not depend on the bias are cached properties of
:class:`GameParameters`, so a batch of draws works them out once.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .codebook import CourtReview, PartyControl
from .errors import DomainError

BIAS_MIN = -4.0
BIAS_MAX = 4.0

# Coefficient that keeps the asymmetric quartic g convex over the prior
# support of its asymmetry parameter.
_QUARTIC_C = math.sqrt(4.0 * (2.0 * 0.7) * (12.0 * 0.2**2)) / 6.0


def clamp_bias(x):
    # The bits of np.clip without its Python wrapper, which costs more than
    # the clipping on arrays this small.
    return np.minimum(np.maximum(x, BIAS_MIN), BIAS_MAX)


def party_sign(control) -> float:
    """+1 for Republicans and -1 for Democrats, the direction each pushes the bias.

    0 for anything else: nonpartisan, split, uncontrolled, or absent (None).
    """
    if control is PartyControl.REPUBLICANS:
        return 1.0
    if control is PartyControl.DEMOCRATS:
        return -1.0
    return 0.0


def cauchy_cdf(x):
    """CDF of the standard Cauchy distribution, F(x) = arctan(x)/pi + 1/2."""
    return np.arctan(x) / np.pi + 0.5


def cauchy_quantile(p):
    """Inverse of :func:`cauchy_cdf`; defined on the open interval (0, 1)."""
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("cauchy_quantile requires p in (0, 1)")
    return np.tan(np.pi * (p - 0.5))


@dataclass(frozen=True)
class GameParameters:
    """One draw of the 19 move-by-nature parameters.

    Each field is a float, or for a batch of D draws a (D, 1) column (see
    :func:`stack_parameters`).
    """

    chal_poss_conf: float
    chal_poss_maybe: float
    chal_prob_bias0: float
    chal_prob_bias2: float
    interv_prob_max: float
    interv_asym: float
    interv_prob_bias0: float
    interv_prob_bias2: float
    out_nonp_bias2: float
    out_nonp_part_adv: float
    vra_chal_prob_bias0: float
    vra_chal_prob_bias2: float
    vra_interv_prob: float
    vra_out_breakeven: float
    vra_out_slope: float
    stale_slope: float
    veto_nonp_prob_max: float
    stale_split_prob: float
    veto_nonp_shift: float

    def __post_init__(self):
        # Each field must be finite and lie in the support of its default
        # prior's kind; a normal field may take any finite value.
        for name, dist in _DEFAULT_PRIORS.items():
            support, low, high = _SUPPORTS[dist.kind]
            value = getattr(self, name)
            finite = np.isfinite(value)
            if not np.all(finite):
                raise DomainError(f"{name}={np.asarray(value)[~finite][0]} is not finite")
            if dist.kind != "normal" and not np.all((value >= low) & (value <= high)):
                raise DomainError(f"{name}={value} outside {support}")

    def tiled(self, m: int) -> "GameParameters":
        """The batch of draws repeated m times along the draws, one copy per stacked tree.

        Kept like the terms below, so every pass of m trees reads one copy;
        the fields are not checked again.
        """
        kept = self.__dict__.setdefault("tiled_by_count", {})
        if m not in kept:
            kept[m] = object.__new__(GameParameters)
            kept[m].__dict__.update({name: np.concatenate([getattr(self, name)] * m)
                                     for name in PARAM_NAMES})
        return kept[m]

    # Bias-independent terms, kept in the instance __dict__ on first read. No
    # exception is cached, so a curve probability of 0 or 1 raises on every read.

    def _cauchy_curve(self, p0: str, p_span: str, span: float):
        """(a, b) such that F(a + b h) is field p0 at h = 0 and field p_span at h = span.

        A probability of exactly 0 or 1 has no Cauchy quantile: DomainError
        names the field and its first such draw.
        """
        for name in (p0, p_span):
            p = np.asarray(getattr(self, name))
            outside = np.flatnonzero((p <= 0.0) | (p >= 1.0))
            if outside.size:
                raise DomainError(f"{name}={p.flat[outside[0]]} at draw {outside[0]}: a curve "
                                  "probability must lie strictly inside (0, 1)")
        a = cauchy_quantile(getattr(self, p0))
        return a, (cauchy_quantile(getattr(self, p_span)) - a) / span

    @functools.cached_property
    def chal_curve(self):
        """(a, b) of the challenge curve of :func:`pr_chal_if_poss`."""
        return self._cauchy_curve("chal_prob_bias0", "chal_prob_bias2", 4.0)

    @functools.cached_property
    def interv_curve(self):
        """(a, b) of the intervention curve of :func:`pr_intervene`."""
        return self._cauchy_curve("interv_prob_bias0", "interv_prob_bias2", 4.0)

    @functools.cached_property
    def vra_curve(self):
        """(a, b) of the VRA challenge curve of :func:`vra_process`."""
        return self._cauchy_curve("vra_chal_prob_bias0", "vra_chal_prob_bias2", 2.0)

    @functools.cached_property
    def remedy_scale(self):
        """Slope of the court remedy in arctan(x / 2), through out_nonp_bias2 at x=2."""
        return self.out_nonp_bias2 / math.atan(1.0)

    @functools.cached_property
    def party_lean(self) -> dict:
        """out_nonp_part_adv toward each side, keyed by :func:`party_sign`."""
        return {sign: sign * self.out_nonp_part_adv for sign in (-1.0, 0.0, 1.0)}


PARAM_NAMES = tuple(f.name for f in fields(GameParameters))


class Dist(NamedTuple):
    """Prior for one parameter: kind in {beta, normal, folded_normal}."""

    kind: str
    a: float
    b: float

    def mean(self) -> float:
        if self.kind == "beta":
            return self.a / (self.a + self.b)
        if self.kind == "normal":
            return self.a
        if self.kind == "folded_normal":
            # E|X| for X ~ N(a, b^2); at a = 0 the terms reduce to b * sqrt(2/pi).
            return (self.b * math.sqrt(2.0 / math.pi)
                    * math.exp(-self.a ** 2 / (2.0 * self.b ** 2))
                    + self.a * math.erf(self.a / (self.b * math.sqrt(2.0))))
        raise DomainError(f"unknown distribution kind {self.kind!r}")

    def draw(self, rng: np.random.Generator) -> float:
        if self.kind == "beta":
            return float(rng.beta(self.a, self.b))
        if self.kind == "normal":
            return float(rng.normal(self.a, self.b))
        if self.kind == "folded_normal":
            return abs(float(rng.normal(self.a, self.b)))
        raise DomainError(f"unknown distribution kind {self.kind!r}")


_DEFAULT_PRIORS: dict[str, Dist] = {
    "chal_poss_conf": Dist("beta", 19.0, 1.0),
    "chal_poss_maybe": Dist("beta", 6.0, 14.0),
    "chal_prob_bias0": Dist("beta", 4.0, 16.0),
    "chal_prob_bias2": Dist("beta", 17.0, 3.0),
    "interv_prob_max": Dist("beta", 18.0, 2.0),
    "interv_asym": Dist("beta", 4.0, 1.5),
    "interv_prob_bias0": Dist("beta", 4.0, 16.0),
    "interv_prob_bias2": Dist("beta", 18.0, 2.0),
    "out_nonp_bias2": Dist("folded_normal", 0.0, 0.5),
    "out_nonp_part_adv": Dist("folded_normal", 0.0, 0.4),
    "vra_chal_prob_bias0": Dist("beta", 2.0, 18.0),
    "vra_chal_prob_bias2": Dist("beta", 9.0, 1.0),
    "vra_interv_prob": Dist("beta", 4.0, 1.5),
    "vra_out_breakeven": Dist("normal", -1.5, 0.5),
    "vra_out_slope": Dist("beta", 16.0, 4.0),
    "stale_slope": Dist("beta", 3.0, 17.0),
    "veto_nonp_prob_max": Dist("beta", 3.0, 7.0),
    "stale_split_prob": Dist("beta", 3.0, 5.0),
    "veto_nonp_shift": Dist("normal", 0.65, 0.3),
}


# Support of each prior kind as (text, low, high), narrowest first; the
# supports are nested, so a kind fits a parameter iff it comes no later than
# the parameter's default kind.
_SUPPORTS = {"beta": ("[0, 1]", 0.0, 1.0), "folded_normal": ("[0, inf)", 0.0, math.inf),
             "normal": ("the real line", -math.inf, math.inf)}


def _checked_override(name: str, spec) -> Dist:
    if not isinstance(spec, dict) or "dist" not in spec or "params" not in spec:
        raise DomainError(f"{name}: override must be {{\"dist\": ..., \"params\": [a, b]}}")
    kind, params = spec["dist"], spec["params"]
    if not isinstance(kind, str) or kind not in _SUPPORTS:
        raise DomainError(f"{name}: unknown distribution kind {kind!r}")
    if (not isinstance(params, list) or len(params) != 2
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                       and abs(p) <= sys.float_info.max for p in params)):  # finite as a float
        raise DomainError(f"{name}: params must be two finite numbers, got {params!r}")
    a, b = float(params[0]), float(params[1])
    if kind == "beta" and not (a > 0.0 and b > 0.0):
        raise DomainError(f"{name}: beta shape parameters must be positive, got {params!r}")
    if kind != "beta" and not b > 0.0:
        raise DomainError(f"{name}: {kind} scale must be positive, got {b!r}")
    default = _DEFAULT_PRIORS[name].kind
    if list(_SUPPORTS).index(kind) > list(_SUPPORTS).index(default):
        raise DomainError(f"{name}: a {kind} prior has support {_SUPPORTS[kind][0]}, "
                          f"outside the parameter's {_SUPPORTS[default][0]}")
    return Dist(kind, a, b)


@dataclass(frozen=True)
class PriorSpec:
    """The joint prior over GameParameters, one Dist per parameter.

    Defaults are embedded; individual entries can be overridden from a JSON
    config mapping parameter name -> {"dist": ..., "params": [a, b]}.
    """

    dists: tuple[tuple[str, Dist], ...]

    @classmethod
    def default(cls) -> "PriorSpec":
        return cls(tuple((name, _DEFAULT_PRIORS[name]) for name in PARAM_NAMES))

    @classmethod
    def from_json(cls, text: str) -> "PriorSpec":
        try:
            overrides = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also an overlong integer, or deep nesting
            raise DomainError(f"prior overrides are not valid JSON ({exc})") from None
        if not isinstance(overrides, dict):
            raise DomainError("prior overrides must be a JSON object")
        return cls.default().with_overrides(overrides)

    def with_overrides(self, overrides: dict) -> "PriorSpec":
        """Replace the priors of the named parameters.

        Each override is checked here rather than at the first draw that
        goes out of range: the kind must be known, its shape or scale
        parameters positive, and its support inside the parameter's.
        """
        table = dict(self.dists)
        for name, spec in overrides.items():
            if name not in table:
                raise DomainError(f"unknown parameter {name!r}")
            table[name] = _checked_override(name, spec)
        return PriorSpec(tuple((name, table[name]) for name in PARAM_NAMES))

    def __getitem__(self, name: str) -> Dist:
        return dict(self.dists)[name]

    def mean(self) -> GameParameters:
        return GameParameters(**{name: dist.mean() for name, dist in self.dists})


def _prior_draw(prior: PriorSpec, rng_seed: int, draw_index: int) -> list[float]:
    """One draw of the joint prior, its values in ``prior.dists`` order.

    Each (rng_seed, draw_index) has its own stream. The values are not
    range-checked here; the GameParameters built from them checks them.
    """
    if rng_seed < 0:
        raise DomainError(f"seed {rng_seed} is negative; a seed must be a non-negative integer")
    if draw_index < 0:
        raise DomainError("draw_index must be nonnegative")
    seq = np.random.SeedSequence(entropy=rng_seed, spawn_key=(draw_index,))
    rng = np.random.Generator(np.random.PCG64(seq))
    return [dist.draw(rng) for _, dist in prior.dists]


def sample_parameters(prior: PriorSpec, rng_seed: int, draw_index: int) -> GameParameters:
    """Draw one GameParameters from the joint prior.

    Deterministic in (rng_seed, draw_index), with independent substreams
    across draw indices, so draws can be generated in any order or in
    parallel and always agree.
    """
    values = _prior_draw(prior, rng_seed, draw_index)
    return GameParameters(**{name: v for (name, _), v in zip(prior.dists, values)})


def stack_parameters(draws: list[GameParameters]) -> GameParameters:
    """Stack single draws into one batch whose fields are (D, 1) columns."""
    return GameParameters(**{name: np.array([getattr(t, name) for t in draws],
                                            dtype=float)[:, None]
                             for name in PARAM_NAMES})


@dataclass(frozen=True)
class CourtContext:
    """The process facts the post-enactment machinery conditions on."""

    court_review: CourtReview
    court_control: PartyControl
    preclearance: bool


def pr_chal_poss(ctx: CourtContext, theta: GameParameters) -> float:
    """Probability that a partisan legal challenge is possible at all."""
    if ctx.court_review is CourtReview.YES:
        return theta.chal_poss_conf
    if ctx.court_review is CourtReview.MAYBE:
        return theta.chal_poss_maybe
    if ctx.court_review is CourtReview.NO:
        return 1.0 - theta.chal_poss_conf
    raise DomainError("court_review is NA; challenge possibility undefined")


def pr_chal_if_poss(x, theta: GameParameters):
    """Probability a challenge is filed, given one is possible.

    F(a + b x^2) with F the standard Cauchy CDF; a and b are chosen so the
    curve passes through chal_prob_bias0 at x=0 and chal_prob_bias2 at
    |x|=2. U-shaped and even in x: extreme plans from either side invite
    challenges.
    """
    a, b = theta.chal_curve
    return cauchy_cdf(a + b * np.square(x))


def quartic_g(x, a):
    """Convex quartic g(x; a) = x^2 (0.7 + a c x + (0.2 x)^2).

    The asymmetry parameter a in [0, 1] tilts the curve so that it grows
    faster on the positive side; a=0 makes it even.
    """
    return np.square(x) * (0.7 + a * _QUARTIC_C * x + np.square(0.2 * x))


def pr_intervene(x, ctx: CourtContext, theta: GameParameters):
    """Probability the court sides with the plaintiffs and redraws.

    c * F(a + b h(x)), asymptoting at c = interv_prob_max. Partisan courts
    are tilted via the quartic: a Democratic court is more likely to strike
    Republican-leaning plans (h(x) = g(x; asym)) and vice versa
    (h(x) = g(-x; asym)); other courts use the symmetric h(x) = x^2.
    """
    a, b = theta.interv_curve
    if ctx.court_control is PartyControl.DEMOCRATS:
        h = quartic_g(x, theta.interv_asym)
    elif ctx.court_control is PartyControl.REPUBLICANS:
        h = quartic_g(np.negative(x), theta.interv_asym)
    else:
        h = np.square(x)
    return theta.interv_prob_max * cauchy_cdf(a + b * h)


def court_outcome(x, ctx: CourtContext, theta: GameParameters):
    """Expected bias of the remedy a court orders when it intervenes.

    A damped odd function of the struck plan's bias (passing through
    out_nonp_bias2 at x=2), plus a constant lean of out_nonp_part_adv
    toward the party controlling the court.
    """
    raw = theta.remedy_scale * np.arctan(x / 2.0)
    return clamp_bias(raw + theta.party_lean[party_sign(ctx.court_control)])


def vra_process(x, ctx: CourtContext, theta: GameParameters):
    """Federal VRA challenge channel: (challenge probability, remedy bias).

    Only formerly precleared states are exposed; the challenge probability
    F(a + b x) rises with x because Republican-leaning plans are the ones
    that draw VRA suits. The remedy shrinks the plan toward the breakeven
    point (vra_out_breakeven, itself typically Democratic-leaning). The net
    intervention probability is the challenge probability times
    vra_interv_prob.
    """
    remedy = clamp_bias(theta.vra_out_slope * (x - theta.vra_out_breakeven)
                        + theta.vra_out_breakeven)
    if not ctx.preclearance:
        return np.zeros_like(x, dtype=float), remedy
    a, b = theta.vra_curve
    return cauchy_cdf(a + b * x), remedy


class ExpCourt(NamedTuple):
    """Expected post-enactment bias and the path split behind it.

    Both masses are None in a court that the solver keeps at a grid.
    """

    value: float
    pr_redraw: float | None   # mass on a court redraw (partisan challenge or VRA)
    pr_survive: float | None  # mass on the enacted plan surviving as-is


def exp_court(x, ctx: CourtContext, theta: GameParameters) -> ExpCourt:
    """Expected outcome once a plan with bias x is enacted.

    Mixture over: partisan-challenge redraw (court_outcome), VRA redraw
    (the VRA remedy), and survival (x itself). The two returned masses sum
    to one. Without preclearance the VRA terms, all zero, are left out; the
    bits are those of the full mixture, except that a zero value at a bias
    of -0.0 can come out with the other sign.
    """
    p_int = pr_chal_poss(ctx, theta) * pr_chal_if_poss(x, theta) * pr_intervene(x, ctx, theta)
    p_keep = 1.0 - p_int
    redrawn = p_int * court_outcome(x, ctx, theta)
    if not ctx.preclearance:
        return ExpCourt(redrawn + p_keep * x, p_int, p_keep)
    vra_prob, vra_remedy = vra_process(x, ctx, theta)
    p_vra = vra_prob * theta.vra_interv_prob
    via_vra = p_keep * p_vra
    survive = p_keep * (1.0 - p_vra)
    return ExpCourt(redrawn + via_vra * vra_remedy + survive * x, p_int + via_vra, survive)


def stalemate_default(x, resolver_control: PartyControl, drawer_party: PartyControl,
                      theta: GameParameters):
    """Outcome when no partisan body gets to resolve a stalemate outright.

    A status-quo rescaling stale_slope * x of the most recent proposal,
    with a partisan offset keyed to the resolving court when that court is
    partisan, otherwise to the partisan initial drawer, otherwise zero.
    """
    return stalemate_toward(x, theta.party_lean[party_sign(resolver_control)
                                                or party_sign(drawer_party)], theta)


def stalemate_toward(x, offset, theta: GameParameters):
    """:func:`stalemate_default` given its offset, the lean's sign x out_nonp_part_adv."""
    return clamp_bias(theta.stale_slope * x + offset)


def pr_veto_nonpartisan(x, theta: GameParameters):
    """Veto probability for nonpartisan, voter, or uncontrolled veto points."""
    return theta.veto_nonp_prob_max * pr_chal_if_poss(x, theta)


def round2_nonpartisan_proposal(x_prev, veto_parties, theta: GameParameters):
    """Second-round proposal of a nonpartisan drawer after a veto.

    Shifts the previous proposal toward the average partisanship of the
    veto players: by the full veto_nonp_shift when both lean the same way,
    half when only one does, not at all when they cancel or neither is
    partisan. Clamped to the bias scale.
    """
    first, second = veto_parties
    return clamp_bias(x_prev + (party_sign(first) + party_sign(second)) / 2.0
                      * theta.veto_nonp_shift)
