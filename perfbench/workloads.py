"""Seeded inputs for the three benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the
``--seed`` argument, so the same seed gives the same inputs.  The recipes
follow the ones the test suite uses, but they are kept here on purpose: a
change to a test helper must not shift what the benchmark measures.

Each workload is a fixed scenario that the seed perturbs.  The ladder's
seed jitters the base demand; the batches are drawn once from
``FAMILY_SEED`` and the seed jitters every cost coefficient.  Solve times
of random instances are heavy-tailed, so a fresh draw per seed would make
the figures move with the draw more than with the solver; a perturbed
scenario keeps the work per run nearly constant while no two seeds solve
the same numbers.

Why each workload exists (also recorded in ``BENCHMARK.json``):

* ``fleet_ladder``: lossless solves of the symmetric 3-unit fleet copied to
  6, 9, 12 and 15 units.  The cold root LP is almost all of the wall time,
  each rung takes one node and no warm LP, and the cost per pivot grows with
  the square of the row count (552 to 1371 rows).
* ``small_batch``: two hundred small lossless instances, each saved and
  loaded, solved, written out and audited.  The LPs have under 200 rows, so
  per-solve fixed costs and warm node LPs show instead of the dense kernel.
* ``lossy_refine``: 5 and 6 unit lossy instances solved by the refinement
  loop.  Every pass rebuilds and cold-starts the MILP, some passes branch,
  and the benchmark also times a lossless solve of each instance so the
  cost of the loop can be given relative to it.
"""

from dataclasses import dataclass, replace

import numpy as np

from dedpoz import GeneratingUnit, IaConfig, LossModel, SystemInstance, duplicate_system

LOSSLESS = "lossless"
LOSSY = "lossy"

# Every case is solved at least this often in a run and its fastest pass
# counts.  A fixed count keeps that statistic alike from run to run; if the
# count followed the clock, a slow phase of the machine would also mean
# fewer passes to pick the fastest from.
MIN_PASSES = {"fleet_ladder": 2, "small_batch": 4, "lossy_refine": 2}

BASE_DEMAND = np.array([90.0, 105.0, 120.0])
LADDER_FACTORS = (2, 3, 4, 5)
LADDER_CONFIG = IaConfig(gap=1e-6, tangent_steps=10)
LADDER_JITTER = 0.02

FAMILY_SEED = 1704
COST_JITTER = 0.01

SMALL_COUNT = 200
SMALL_CONFIG = IaConfig(gap=1e-4, tangent_steps=4)

LOSSY_COUNT = 12
LOSSY_UNITS = (5, 6)
LOSSY_PERIODS = 4
LOSSY_CONFIG = IaConfig()


@dataclass(frozen=True)
class Case:
    """One instance a workload solves, with what its checks need."""

    label: str
    instance: SystemInstance
    mode: str
    config: IaConfig
    copies: int = 0  # fleet_ladder: copies of the base fleet


def symmetric_fleet(demand=BASE_DEMAND) -> SystemInstance:
    """Three identical units with one prohibited zone each; the optimum is
    the equal split whenever demand / 3 lies in an allowed segment."""
    units = tuple(
        GeneratingUnit(id=i + 1, alpha=5.0, beta=2.0, gamma=0.008,
                       p_min=10.0, p_max=50.0, ramp_up=40.0, ramp_down=40.0,
                       prohibited_zones=((15.0, 20.0),))
        for i in range(3))
    demand = np.asarray(demand, dtype=float)
    return SystemInstance(units=units, demand=demand, reserve=0.05 * demand)


def equal_split_cost(base: SystemInstance) -> float:
    """Fuel cost of the base fleet when every unit carries a third of demand."""
    p = base.demand / 3.0
    return float(sum(3 * (5.0 + 2.0 * x + 0.008 * x * x) for x in p))


def fleet_ladder(rng) -> tuple:
    """``(base, cases)``: a jittered base fleet and its copies, smallest first."""
    base = symmetric_fleet(BASE_DEMAND * (1.0 + rng.uniform(-LADDER_JITTER, LADDER_JITTER, 3)))
    cases = [Case(f"u{3 * f}", duplicate_system(base, f), LOSSLESS, LADDER_CONFIG, copies=f)
             for f in LADDER_FACTORS]
    return base, cases


def _carve_zones(rng, p_min, width, n_zones):
    """Alternating allowed and forbidden bands over [p_min, p_min + width];
    allowed bands keep at least 0.4 MW and forbidden ones 0.3 MW."""
    if n_zones == 0:
        return ()
    mins = [0.4 if j % 2 == 0 else 0.3 for j in range(2 * n_zones + 1)]
    parts = rng.random(2 * n_zones + 1)
    parts = parts / parts.sum() * (width - sum(mins))
    edges = p_min + np.cumsum([0.0] + [m + e for m, e in zip(mins, parts)])
    return tuple((float(edges[2 * j + 1]), float(edges[2 * j + 2])) for j in range(n_zones))


def _point_in_segment(rng, unit, lo_frac, hi_frac):
    segs = unit.segments()
    seg = segs[int(rng.integers(len(segs)))]
    return float(seg.lo + rng.uniform(lo_frac, hi_frac) * seg.width)


def jitter_costs(instance, rng) -> SystemInstance:
    """The instance with alpha, beta and gamma of every unit scaled by
    independent factors within 1 +- COST_JITTER; feasibility is unchanged."""
    def scaled(value):
        return value * (1.0 + rng.uniform(-COST_JITTER, COST_JITTER))

    units = tuple(replace(u, alpha=scaled(u.alpha), beta=scaled(u.beta), gamma=scaled(u.gamma))
                  for u in instance.units)
    return replace(instance, units=units)


def _headroom(units, point):
    return sum(min(u.p_max - p, u.ramp_up) for u, p in zip(units, point))


def small_instance(rng, n_units, n_periods) -> SystemInstance:
    """Narrow units (2 to 4 MW wide) with up to two zones, full-width ramps,
    and demand summed from sampled feasible points, so the instance is
    feasible by construction and the grid DP can certify it."""
    units = []
    for i in range(n_units):
        p_min = float(rng.uniform(5.0, 40.0))
        width = float(rng.uniform(2.0, 4.0))
        zones = _carve_zones(rng, p_min, width, int(rng.integers(0, 3)))
        ramp = width * float(rng.uniform(1.0, 1.5))
        units.append(GeneratingUnit(
            id=i + 1, alpha=float(rng.uniform(0.0, 20.0)),
            beta=float(rng.uniform(0.5, 5.0)), gamma=float(rng.uniform(0.01, 0.2)),
            p_min=p_min, p_max=p_min + width, ramp_up=ramp, ramp_down=ramp,
            prohibited_zones=zones))
    frac = float(rng.uniform(0.02, 0.10))
    demand = np.empty(n_periods)
    reserve = np.empty(n_periods)
    for t in range(n_periods):
        point = [_point_in_segment(rng, u, 0.05, 0.95) for u in units]
        demand[t] = sum(point)
        reserve[t] = min(frac * demand[t], 0.8 * _headroom(units, point))
    return SystemInstance(units=tuple(units), demand=demand, reserve=reserve)


def small_batch(rng) -> list:
    """Instances of 1 to 3 units and 2 to 4 periods, cycling through all
    nine size combinations, with costs jittered by the seed."""
    family = np.random.default_rng(FAMILY_SEED)
    cases = []
    for k in range(SMALL_COUNT):
        n_units, n_periods = 1 + k % 3, 2 + (k // 3) % 3
        instance = jitter_costs(small_instance(family, n_units, n_periods), rng)
        cases.append(Case(f"s{k}", instance, LOSSLESS, SMALL_CONFIG))
    return cases


def loss_mw(b00, b0, b, base, p):
    """Network loss in MW, ``(b00 + b0.q + q'Bq) * base`` with ``q = p / base``."""
    q = np.asarray(p, dtype=float) / base
    return float((b00 + b0 @ q + q @ b @ q) * base)


def lossy_instance(rng, n_units, n_periods) -> SystemInstance:
    """Units 20 to 40 MW wide (the first without zones), a positive
    semidefinite B-matrix scaled so losses stay near 1.5% of demand, and
    demand set to sampled generation minus its exact loss, so the sampled
    dispatch balances and the instance is feasible by construction."""
    units = []
    for i in range(n_units):
        p_min = float(rng.uniform(10.0, 30.0))
        width = float(rng.uniform(20.0, 40.0))
        zones = _carve_zones(rng, p_min, width, 0 if i == 0 else int(rng.integers(0, 3)))
        units.append(GeneratingUnit(
            id=i + 1, alpha=float(rng.uniform(0.0, 20.0)),
            beta=float(rng.uniform(0.5, 5.0)), gamma=float(rng.uniform(0.005, 0.05)),
            p_min=p_min, p_max=p_min + width, ramp_up=width, ramp_down=width,
            prohibited_zones=zones))
    points = np.array([[_point_in_segment(rng, u, 0.1, 0.5) for u in units]
                       for _ in range(n_periods)])
    base = 100.0
    w = rng.normal(size=(n_units, n_units))
    b = w @ w.T / n_units
    q = points / base
    mean_quad_mw = float(np.mean([row @ b @ row for row in q])) * base
    b *= 0.015 * points.sum(axis=1).mean() / max(mean_quad_mw, 1e-12)
    b = (b + b.T) / 2.0
    b0 = rng.uniform(0.001, 0.003, size=n_units)
    b00 = float(rng.uniform(1e-4, 3e-4))
    demand = np.array([row.sum() - loss_mw(b00, b0, b, base, row) for row in points])
    reserve = np.array([min(0.03 * d, 0.5 * _headroom(units, row))
                        for d, row in zip(demand, points)])
    return SystemInstance(units=tuple(units), demand=demand, reserve=reserve,
                          loss_model=LossModel(b00=b00, b0=b0, b_matrix=b, base_mva=base))


def lossy_refine(rng) -> list:
    """Lossy instances alternating between 5 and 6 units, 4 periods each,
    with costs jittered by the seed."""
    family = np.random.default_rng(FAMILY_SEED)
    cases = []
    for k in range(LOSSY_COUNT):
        instance = lossy_instance(family, LOSSY_UNITS[k % 2], LOSSY_PERIODS)
        cases.append(Case(f"l{k}", jitter_costs(instance, rng), LOSSY, LOSSY_CONFIG))
    return cases
