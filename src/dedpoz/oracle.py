"""Exhaustive reference solvers for tiny dispatch instances.

These are test oracles, deliberately independent of the MILP machinery: a
segment-assignment enumerator and a discretized dynamic program over joint
output grids.  Both are exponential in instance size and guarded by hard
caps; they exist to cross-check the production solver on desk-scale cases,
not to dispatch real systems.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, InfeasibleError, ValidationError
from .system import Schedule, SystemInstance

ASSIGNMENT_CAP = 1 << 16
MAX_GRID_POINTS = 200
DP_MAX_UNITS = 3
DP_MAX_PERIODS = 6


def enumerate_assignments(instance: SystemInstance, cap: int = ASSIGNMENT_CAP):
    """Iterate over every way to place each unit-period on one of its
    segments, as T x N arrays of 0-based segment indices, in lexicographic
    order over cells taken row-major (period-major, unit-minor)."""
    t_count, n = instance.n_periods, instance.n_units
    counts = [len(segs) for segs in instance.segments]
    total = 1
    for c in counts:
        total *= c ** t_count
        if total > cap:
            raise EnumerationCapError(
                f"assignment count exceeds cap {cap}; refuse to enumerate")
    cell_ranges = [range(counts[i]) for _ in range(t_count) for i in range(n)]
    for combo in itertools.product(*cell_ranges):
        yield np.array(combo, dtype=int).reshape(t_count, n)


def cost_lipschitz(instance: SystemInstance) -> float:
    """Largest marginal cost over any unit's operating range; the per-MW
    sensitivity used in the DP accuracy guarantee."""
    return float(max(u.beta + 2.0 * u.gamma * u.p_max for u in instance.units))


def dp_error_bound(instance: SystemInstance, delta: float) -> float:
    """Worst-case cost gap between the grid DP and the true optimum."""
    return cost_lipschitz(instance) * instance.n_units * instance.n_periods * delta


@dataclass(frozen=True)
class _Stage:
    states: np.ndarray   # S x N joint outputs
    cost: np.ndarray     # S


def _unit_grid(segments, delta):
    pts = []
    for seg in segments:
        n_steps = int(np.ceil(seg.width / delta - 1e-12))
        pts.append(seg.lo + delta * np.arange(max(n_steps, 0)))
        pts.append([seg.hi])
    grid = np.unique(np.concatenate([np.atleast_1d(p) for p in pts]))
    return grid


def _snap_into_segments(segments, values, tol=1e-9):
    """Clip each value into the segment that contains it; NaN if none does."""
    out = np.full(values.shape, np.nan)
    for seg in segments:
        inside = (values >= seg.lo - tol) & (values <= seg.hi + tol)
        out[inside] = np.clip(values[inside], seg.lo, seg.hi)
    return out


def _stage_states(instance, grids, t):
    """Exactly balanced joint outputs for period ``t``.

    Every unit but one sits on its grid and the leftover unit absorbs the
    balance residual, provided the residual lands in one of its allowed
    segments; all choices of the absorbing unit are tried.  States must
    also leave enough headroom for the reserve requirement.
    """
    demand = instance.demand[t]
    n = instance.n_units
    blocks = []
    for j in range(n):
        others = [i for i in range(n) if i != j]
        if others:
            mesh = np.meshgrid(*[grids[i] for i in others], indexing="ij")
            partial = np.stack([m.ravel() for m in mesh], axis=1)
        else:
            partial = np.zeros((1, 0))
        resid = _snap_into_segments(instance.segments[j],
                                    demand - partial.sum(axis=1))
        keep = np.isfinite(resid)
        if not keep.any():
            continue
        block = np.empty((int(keep.sum()), n))
        block[:, others] = partial[keep]
        block[:, j] = resid[keep]
        blocks.append(block)
    states = np.unique(np.vstack(blocks), axis=0) if blocks else np.empty((0, n))
    if states.size:
        headroom = np.minimum(instance.p_maxs - states, instance.ramp_ups).sum(axis=1)
        states = states[headroom >= instance.reserve[t] - 1e-9]
    if states.shape[0] == 0:
        raise InfeasibleError(
            f"period {t + 1}: no grid point meets balance and reserve")
    stage_cost = (instance.alphas + instance.betas * states
                  + instance.gammas * states * states).sum(axis=1)
    return _Stage(states=states, cost=stage_cost)


def _ramp_free(instance) -> bool:
    span = instance.p_maxs - instance.p_mins
    wide = np.all(instance.ramp_ups >= span) and np.all(instance.ramp_downs >= span)
    return bool(wide) and all(u.p_initial is None for u in instance.units)


def _transition_min(prev_states, prev_value, states, ramp_up, ramp_down, tol=1e-9):
    """For each state, the cheapest ramp-compatible predecessor value."""
    out = np.full(states.shape[0], np.inf)
    arg = np.full(states.shape[0], -1, dtype=int)
    chunk = max(1, int(2_000_000 // max(prev_states.shape[0], 1)))
    for lo in range(0, states.shape[0], chunk):
        cur = states[lo:lo + chunk]
        step = cur[:, None, :] - prev_states[None, :, :]
        ok = np.all((step <= ramp_up + tol) & (step >= -ramp_down - tol), axis=2)
        masked = np.where(ok, prev_value[None, :], np.inf)
        out[lo:lo + chunk] = masked.min(axis=1)
        arg[lo:lo + chunk] = masked.argmin(axis=1)
    return out, arg


def dp_exact_dispatch(instance: SystemInstance, delta: float) -> tuple:
    """Minimum-cost dispatch on per-unit output grids of spacing ``delta``.

    Grids cover each allowed segment with its endpoints included.  In each
    period all units but one sit on their grids and the leftover unit picks
    up the balance residual exactly (every choice of leftover unit is
    tried), so each state is a genuine feasible dispatch and the DP value
    never undercuts the true optimum.  Transitions are filtered by the ramp
    limits.  The returned cost is within
    ``cost_lipschitz(instance) * N * T * delta`` of the true optimum whenever
    the binding constraints leave that much room (the guarantee rounds a true
    optimal schedule onto the grid and lets the leftover unit soak up the
    rounding).  Returns ``(cost, schedule)``.

    Lossless instances only, at most 3 units and 6 periods.
    """
    if instance.loss_model is not None and not instance.loss_model.is_zero():
        raise ValidationError("grid DP supports lossless instances only")
    if instance.n_units > DP_MAX_UNITS:
        raise ValidationError(f"grid DP supports at most {DP_MAX_UNITS} units")
    if instance.n_periods > DP_MAX_PERIODS:
        raise ValidationError(f"grid DP supports at most {DP_MAX_PERIODS} periods")
    if not 0 < delta < np.inf:  # NaN too
        raise ValidationError(f"delta must be > 0 and finite, got {delta}")

    grids = []
    for i, segs in enumerate(instance.segments):
        steps = sum(int(np.ceil(s.width / delta - 1e-12)) for s in segs)
        if steps > MAX_GRID_POINTS:
            raise ValidationError(
                f"unit {instance.units[i].id}: {steps} grid points exceeds "
                f"{MAX_GRID_POINTS}; increase delta")
        grids.append(_unit_grid(segs, delta))

    stages = [_stage_states(instance, grids, t)
              for t in range(instance.n_periods)]

    if _ramp_free(instance):
        # ramps can never bind: periods decouple exactly
        picks = [int(np.argmin(st.cost)) for st in stages]
        cost = float(sum(st.cost[k] for st, k in zip(stages, picks)))
        p = np.vstack([st.states[k] for st, k in zip(stages, picks)])
    else:
        first = stages[0]
        value = first.cost.copy()
        p_init = np.array([np.nan if u.p_initial is None else u.p_initial
                           for u in instance.units])
        if np.any(np.isfinite(p_init)):
            step = first.states - np.where(np.isfinite(p_init), p_init, first.states)
            ok = np.all((step <= instance.ramp_ups + 1e-9)
                        & (step >= -instance.ramp_downs - 1e-9), axis=1)
            value[~ok] = np.inf
        back = []
        for t in range(1, instance.n_periods):
            prev = stages[t - 1]
            cur = stages[t]
            best_prev, arg = _transition_min(prev.states, value, cur.states,
                                             instance.ramp_ups, instance.ramp_downs)
            value = cur.cost + best_prev
            back.append(arg)
        if not np.isfinite(value.min()):
            raise InfeasibleError("no ramp-feasible path through the grid")
        k = int(np.argmin(value))
        cost = float(value[k])
        path = [k]
        for arg in reversed(back):
            k = int(arg[k])
            path.append(k)
        path.reverse()
        p = np.vstack([st.states[k] for st, k in zip(stages, path)])

    sr = _waterfill_reserve(instance, p)
    return cost, Schedule(p=p, sr=sr)


def _waterfill_reserve(instance, p):
    """Assign reserve greedily in unit order up to each unit's headroom."""
    sr = np.zeros_like(p)
    caps = np.minimum(instance.p_maxs - p, instance.ramp_ups)
    for t in range(p.shape[0]):
        need = instance.reserve[t]
        for i in range(p.shape[1]):
            give = min(max(caps[t, i], 0.0), need)
            sr[t, i] = give
            need -= give
            if need <= 0:
                break
    return sr
