"""Closed-form layer: trajectory, criticality, constants, phase lengths.

The model is parameterized by uniformity r >= 3, initial-infection constant
c, edge-probability constant alpha, and degree scale d: vertices start
infected with probability p = c * d^(-1/(r-1)) and edges succeed with
probability q = alpha * d^(-1/(r-1)).  The open-edge count Q(m) tracks
N * density(t) at t = m/N, where

    density(t) = (c + alpha*t)^(r-1) - t.

Whether density ever hits zero decides the regime: two positive roots mean
the single-reveal phase starves (subcritical), no roots mean it keeps
accelerating (supercritical).  The dividing line in closed form is
c^(r-2) * alpha = (r-2)^(r-2) / (r-1)^(r-1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from math import comb, log
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .hypergraph import is_count, is_number

ROOT_RESIDUAL_TOL = 1e-9
BOUNDARY_TOL = 1e-12


class BoundaryError(ValueError):
    """Parameters sit on the criticality boundary; classification refused."""


class Criticality(enum.Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; n_vertices binds them to a concrete instance."""
    r: int
    c: float
    alpha: float
    d: float
    K: float = 100.0
    n_vertices: Optional[int] = None

    def __post_init__(self):
        if not is_count(self.r):
            raise ValueError(f"uniformity r={self.r} must be an integer")
        if self.r < 3:
            raise ValueError(f"uniformity r={self.r} must be at least 3")
        for name in ("c", "alpha", "d", "K"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value)):
                raise ValueError(f"model parameter {name}={value} must be "
                                 "a finite number")
        if self.c < 0:
            raise ValueError(f"infection constant c={self.c} must be nonnegative")
        if self.alpha <= 0:
            raise ValueError(f"edge constant alpha={self.alpha} must be positive")
        if self.d <= 1:
            raise ValueError(f"degree scale d={self.d} must exceed 1")
        if self.K <= 0:
            raise ValueError(f"error-band exponent K={self.K} must be positive")
        if self.n_vertices is not None and self.n_vertices < 2:
            raise ValueError("bound vertex count must be at least 2")

    def check_uniformity(self, r: int) -> None:
        """Refuse a host whose uniformity r is not these parameters' r."""
        if r != self.r:
            raise ValueError(f"hypergraph uniformity {r} != params.r {self.r}")

    def bind(self, n_vertices: int) -> "ModelParams":
        return replace(self, n_vertices=n_vertices)

    @property
    def p(self) -> float:
        """Initial infection density c * d^(-1/(r-1))."""
        return self.c * self.d ** (-1.0 / (self.r - 1))

    @property
    def q(self) -> float:
        """Edge success probability alpha * d^(-1/(r-1))."""
        return self.alpha * self.d ** (-1.0 / (self.r - 1))

    def to_dict(self) -> dict:
        return {"r": self.r, "c": self.c, "alpha": self.alpha, "d": self.d,
                "K": self.K, "n_vertices": self.n_vertices}


def open_edge_density(t: float, p: ModelParams) -> float:
    """Predicted open-edge count per vertex at rescaled time t."""
    return (p.c + p.alpha * t) ** (p.r - 1) - t


def open_edge_density_prime(t: float, p: ModelParams) -> float:
    return p.alpha * (p.r - 1) * (p.c + p.alpha * t) ** (p.r - 2) - 1.0


@dataclass(frozen=True)
class TrajectoryRoots:
    stationary_t: float
    density_at_stationary: float
    root_low: Optional[float]
    root_high: Optional[float]


def stationary_and_roots(p: ModelParams) -> TrajectoryRoots:
    """Stationary point of the density and its positive roots, if any.

    The density has a unique stationary point on the physical branch; a
    strictly negative stationary value yields exactly two positive roots,
    found by bracketed solving and polished to residual <= 1e-9.  A
    stationary value within 1e-12 of zero is refused as boundary.
    """
    r, c, a = p.r, p.c, p.alpha
    t_min = ((1.0 / (a * (r - 1))) ** (1.0 / (r - 2)) - c) / a
    g_min = open_edge_density(t_min, p)
    if abs(g_min) <= BOUNDARY_TOL:
        raise BoundaryError(
            f"density minimum {g_min:.3e} within boundary dead-band")
    if g_min > 0:
        return TrajectoryRoots(t_min, g_min, None, None)
    if t_min <= 0:
        raise AssertionError("negative stationary point with negative minimum")

    def g(t):
        return open_edge_density(t, p)

    root_low = _polish(brentq(g, 0.0, t_min, xtol=1e-15, rtol=8.9e-16), p)
    hi = t_min + 1.0
    while g(hi) <= 0:
        hi = t_min + 2 * (hi - t_min)
    root_high = _polish(brentq(g, t_min, hi, xtol=1e-15, rtol=8.9e-16), p)
    for root in (root_low, root_high):
        if abs(open_edge_density(root, p)) > ROOT_RESIDUAL_TOL:
            raise RuntimeError(f"root residual {open_edge_density(root, p):.3e} "
                               f"exceeds {ROOT_RESIDUAL_TOL}")
    return TrajectoryRoots(t_min, g_min, root_low, root_high)


def _polish(t: float, p: ModelParams) -> float:
    for _ in range(3):
        deriv = open_edge_density_prime(t, p)
        if deriv == 0:
            break
        step = open_edge_density(t, p) / deriv
        if not math.isfinite(step):
            break
        t -= step
    return t


def classify_criticality(p: ModelParams) -> Criticality:
    """Regime from the closed-form inequality, with a relative dead-band."""
    lhs = p.c ** (p.r - 2) * p.alpha
    rhs = (p.r - 2) ** (p.r - 2) / (p.r - 1) ** (p.r - 1)
    if abs(lhs - rhs) <= BOUNDARY_TOL * max(abs(lhs), abs(rhs)):
        return Criticality.BOUNDARY
    return Criticality.SUBCRITICAL if lhs < rhs else Criticality.SUPERCRITICAL


def critical_initial_constant(r: int, alpha: float) -> float:
    """The value of c separating the regimes at a given alpha."""
    if r < 3:
        raise ValueError(f"uniformity r={r} must be at least 3")
    if alpha <= 0:
        raise ValueError(f"edge constant alpha={alpha} must be positive")
    return (r - 2) / (alpha ** (1.0 / (r - 2)) * (r - 1) ** ((r - 1) / (r - 2)))


def star_density(t: float, i: int, j: int, p: ModelParams) -> float:
    """Predicted per-vertex pendant-star count scaled by d^(1-i/(r-1)).

    i marked vertices on the central edge, j pendant edges.
    """
    r = p.r
    if not 0 <= i <= r - 1:
        raise ValueError(f"marked count i={i} outside 0..{r - 1}")
    if not 0 <= j <= r - 1 - i:
        raise ValueError(f"pendant count j={j} outside 0..{r - 1 - i}")
    base = comb(r - 1, i) * (p.c + p.alpha * t) ** i
    if j == 0:
        return base
    return comb(r - 1 - i, j) * base * open_edge_density(t, p) ** j


def error_band(t: float, p: ModelParams) -> float:
    """Relative half-width of the concentration band around the trajectory."""
    if t < 0:
        raise ValueError(f"time t={t} must be nonnegative")
    return (t + 1.0) ** (p.K / 10.0) / log(p.d) ** (p.K / 5.0)


@dataclass(frozen=True)
class SubcriticalConstants:
    """Contraction constants of the subcritical round phase.

    slack is the per-round contraction rate of the open-edge count; caps
    bound the scaled per-vertex star counts, and stop_level is the density
    at which the single-reveal phase hands over to rounds.
    """
    root_low: float
    contraction_gap: float
    slack: float
    stop_level: float
    caps: dict = field(repr=False, default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "root_low": self.root_low,
            "contraction_gap": self.contraction_gap,
            "slack": self.slack,
            "stop_level": self.stop_level,
            "caps": {f"{i},{j}": v for (i, j), v in sorted(self.caps.items())},
        }


def _subcritical_from_roots(p: ModelParams, roots: TrajectoryRoots
                            ) -> SubcriticalConstants:
    """Derive (slack, stop level, star caps) from subcritical parameters'
    solved roots.

    Internal identities are verified numerically and violations raise, as
    they would indicate a formula transcription error rather than bad input.
    """
    r, a = p.r, p.alpha
    t0 = roots.root_low
    gap = 1.0 - a * (r - 1) * (p.c + a * t0) ** (r - 2)
    if gap <= 0:
        raise RuntimeError(f"contraction gap {gap:.3e} not positive at low root")
    slack = min(1.0 / 9.0, gap / 8.0)
    caps: dict = {}
    for i in range(r - 1):
        caps[(i, 0)] = (comb(r - 1, i)
                        * ((1 - 4 * slack) / (a * (r - 1))) ** (i / (r - 2))
                        + slack / a)
    cap_max = max(caps.values())
    cap_min = min(caps.values())
    stop_level = (slack ** 2 * cap_min
                  / (r ** (6 * r + 1) * (1 + a + a ** r) ** 2 * (1 + cap_max) ** 3))
    caps[(r - 2, 1)] = (1 + cap_max) * stop_level
    for i in range(r - 2):
        for j in range(1, r - i):
            if (i, j) in caps:
                continue
            caps[(i, j)] = (r ** (3 * r) * caps[(i, 0)] * (1 + a ** j)
                            * caps[(r - 2, 1)] ** j)
    # identities that must hold by construction
    if abs(caps[(r - 2, 0)] - (1 - 3 * slack) / a) > 1e-9 * (1 + abs(1 / a)):
        raise RuntimeError("cap identity at (r-2, 0) violated")
    if not caps[(r - 2, 1)] < 1:
        raise RuntimeError("cap at (r-2, 1) not below 1")
    for i in range(r - 2):
        for j in range(1, r - i):
            if caps[(i, j)] >= slack ** 2 / (r ** (3 * r + 1) * a ** (j + 1)):
                raise RuntimeError(f"cap bound violated at ({i}, {j})")
    return SubcriticalConstants(root_low=t0, contraction_gap=gap, slack=slack,
                                stop_level=stop_level, caps=caps)


def _first_stop(p: ModelParams, stop_level: float, cap: int) -> Optional[int]:
    """The first m in 0..cap where (1 + 4*band(t)) * density(t) at t = m/N
    falls below stop_level, or None.

    The rule is evaluated for every m at once with numpy.  Its powers may
    round a few ulps away from the scalar ones, so the array only rules out
    the m that clear the stop level by a margin far above that rounding;
    the rest are settled in order by the scalar rule, which is the
    definition.  An m whose array value is not finite is settled by the
    scalar rule too, which raises where Python's float powers overflow.
    """
    t = np.arange(cap + 1) / p.n_vertices
    with np.errstate(over="ignore", invalid="ignore"):
        widen = 1 + 4 * ((t + 1.0) ** (p.K / 10.0) / log(p.d) ** (p.K / 5.0))
        grow = (p.c + p.alpha * t) ** (p.r - 1)
        margin = 1e-12 * widen * (grow + t)
        clear = ((widen * (grow - t) >= stop_level + margin)
                 & np.isfinite(margin))
    for m in np.flatnonzero(~clear).tolist():
        t_m = m / p.n_vertices
        if (1 + 4 * error_band(t_m, p)) * open_edge_density(t_m, p) < stop_level:
            return m
    return None


@dataclass(frozen=True)
class PhaseLengths:
    steps: int          # single-reveal steps (phase 1)
    horizon: float      # steps / N
    rounds: int         # round-phase length (phase 2)


def _phase_lengths(p: ModelParams, crit: Criticality,
                   sub: Optional[SubcriticalConstants]) -> PhaseLengths:
    """Phase-1 step count and phase-2 round count for parameters bound to a
    vertex count, of regime crit (not the boundary), with their subcritical
    constants sub when crit is subcritical.

    Subcritical: phase 1 stops at the first m where the banded density
    (1 + 4*band(t_m)) * density(t_m) falls below the stop level, and phase 2
    runs 2*ceil(log_{1/(1-slack)} N) rounds.  Supercritical: phase 1 runs
    N*floor(log(N)/alpha) steps and phase 2 runs until the doubling budget
    (log N)^((3/2)^m) clears d^(1/(r-1) + 1/10).
    """
    N = p.n_vertices
    if crit is Criticality.SUBCRITICAL:
        cap = int(math.ceil(sub.root_low * N)) + 2
        steps = _first_stop(p, sub.stop_level, cap)
        if steps is None:
            raise RuntimeError("phase-1 stopping rule did not fire below the low root")
        rounds = 2 * math.ceil(log(N) / -math.log1p(-sub.slack))
        return PhaseLengths(steps, steps / N, rounds)
    steps = N * int(log(N) / p.alpha)
    target = p.d ** (1.0 / (p.r - 1) + 0.1)
    if log(N) <= 1.0:
        raise ValueError("supercritical round budget needs log(N) > 1")
    rounds = None
    for m in range(200):
        if log(N) ** (1.5 ** m) > target:
            rounds = m
            break
    if rounds is None:
        raise RuntimeError("round budget did not clear the saturation scale")
    return PhaseLengths(steps, steps / N, rounds)


@dataclass(frozen=True)
class DerivedConstants:
    """Everything derivable from ModelParams, JSON-serializable."""
    params: ModelParams
    criticality: Criticality
    critical_constant: float
    stationary_t: float
    density_at_stationary: float
    root_low: Optional[float]
    root_high: Optional[float]
    subcritical: Optional[SubcriticalConstants]
    phases: Optional[PhaseLengths]

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "criticality": self.criticality.value,
            "critical_constant": self.critical_constant,
            "stationary_t": self.stationary_t,
            "density_at_stationary": self.density_at_stationary,
            "root_low": self.root_low,
            "root_high": self.root_high,
            "subcritical": (self.subcritical.to_dict()
                            if self.subcritical is not None else None),
            "phases": (None if self.phases is None else {
                "steps": self.phases.steps,
                "horizon": self.phases.horizon,
                "rounds": self.phases.rounds,
            }),
        }


def derive_constants(p: ModelParams) -> DerivedConstants:
    """One-stop derivation; boundary parameters are refused."""
    crit = classify_criticality(p)
    if crit is Criticality.BOUNDARY:
        raise BoundaryError("parameters sit on the criticality boundary")
    roots = stationary_and_roots(p)
    sub = (_subcritical_from_roots(p, roots)
           if crit is Criticality.SUBCRITICAL else None)
    phases = (_phase_lengths(p, crit, sub)
              if p.n_vertices is not None else None)
    return DerivedConstants(
        params=p, criticality=crit,
        critical_constant=critical_initial_constant(p.r, p.alpha),
        stationary_t=roots.stationary_t,
        density_at_stationary=roots.density_at_stationary,
        root_low=roots.root_low, root_high=roots.root_high,
        subcritical=sub, phases=phases)
