"""Workloads and one episode of the reacting DeepFlame step.

An episode builds the case and the solver from scratch, advances
``steps`` steps at the paper's dt = 1e-8 s, checks the fields after
every step, and closes the solver.  Episodes are short because every
case diverges after a few steps at this dt (README.md); every step is
checked, so an earlier onset shows up as failures.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import checks
from host import peak_rss_kb
from repro.chemistry.kinetics import KineticsEvaluator
from repro.core.cases import build_rocket_case, build_tgv_case
from repro.core.chemistry_source import BackendChemistry
from repro.core.settings import SolverSettings, build_solver
from tracing import worker_pool

#: the paper's time step
DT = 1e-8
#: cells per episode whose chemistry is re-integrated with Radau
RADAU_CELLS = 2


@dataclass(frozen=True)
class Workload:
    """A case, a solver configuration and an episode length."""

    name: str
    case: str                 # "tgv" or "rocket"
    chemistry: str
    steps: int
    ranks: int = 0

    @property
    def periodic(self) -> bool:
        """Closed domain: total mass must be conserved."""
        return self.case == "tgv"

    @property
    def decomposed(self) -> bool:
        """Multi-rank run, checked against an undecomposed one."""
        return self.ranks >= 2

    def build_case(self):
        """A fresh case (nothing is shared between episodes)."""
        return build_tgv_case(n=16) if self.case == "tgv" \
            else build_rocket_case()

    def settings(self, seed: int) -> SolverSettings:
        """Default settings; ``seed`` sets the partition and audit seeds."""
        opts = {"audit_seed": seed} \
            if self.chemistry == "hybrid-trained" else {}
        return SolverSettings(
            chemistry=self.chemistry, chemistry_options=opts,
            partition_seed=seed, ranks=self.ranks,
            execution="parallel" if self.decomposed else "serial")

    def undecomposed(self) -> "Workload":
        """The same case and settings on one serial solver."""
        return replace(self, name=f"{self.name}/undecomposed", ranks=0)


WORKLOADS = {w.name: w for w in (
    Workload("tgv-hybrid", "tgv", "hybrid-trained", steps=6),
    Workload("tgv-hybrid-2rank", "tgv", "hybrid-trained", steps=6, ranks=2),
    Workload("rocket-direct", "rocket", "direct", steps=6),
)}


# -- chemistry tap --------------------------------------------------------
@dataclass
class ChemistryCall:
    """Inputs and outputs of one ``BackendChemistry.advance`` (copies)."""

    adapter: object
    t: np.ndarray
    p: np.ndarray
    y: np.ndarray
    t_new: np.ndarray
    y_new: np.ndarray
    dt: float


class ChemistryTap:
    """Keeps copies of every chemistry advance made in this process.

    The copies are taken inside the timed step (about 0.5 MB per call)
    and checked after it.  Calls made in forked rank workers pass
    through untouched; a decomposed run is checked through its
    undecomposed reference instead.
    """

    def __init__(self):
        self.calls: list[ChemistryCall] = []
        self._pid = os.getpid()
        self._orig = None

    def install(self) -> None:
        """Wrap ``BackendChemistry.advance``."""
        orig = self._orig = vars(BackendChemistry)["advance"]
        tap = self

        def advance(adapter, t, p, y, dt):
            t_new, y_new = orig(adapter, t, p, y, dt)
            if os.getpid() == tap._pid:
                tap.calls.append(ChemistryCall(
                    adapter, np.array(t, dtype=float),
                    np.array(p, dtype=float), np.array(y, dtype=float),
                    np.array(t_new, dtype=float),
                    np.array(y_new, dtype=float), float(dt)))
            return t_new, y_new

        BackendChemistry.advance = advance

    def uninstall(self) -> None:
        """Restore ``BackendChemistry.advance``."""
        if self._orig is not None:
            BackendChemistry.advance = self._orig
            self._orig = None


def chemistry_tolerances(adapter) -> dict:
    """The chemistry path's stated accuracy, read off its backend.

    Hybrid: the trust gate's ``audit_tol`` (max |dY| at which a
    surrogate cell counts as an audit failure); the surrogate passes T
    through, so T is not compared.  Direct: the step-doubling
    acceptance tolerances ``val_tol_y``/``val_tol_t`` for the Radau
    comparison, and the integrator's ``rtol``/``atol`` for element
    conservation (its RK4/ROS2/BDF updates conserve linear invariants).
    """
    backend = adapter.backend
    direct = getattr(backend, "direct", backend)
    if hasattr(backend, "audit_tol"):
        return {"tol_y": backend.audit_tol, "tol_t": None,
                "elem_rel": 0.0, "elem_abs": backend.audit_tol,
                "t_floor": direct.t_floor}
    return {"tol_y": direct.val_tol_y, "tol_t": direct.val_tol_t,
            "elem_rel": direct.rtol, "elem_abs": direct.atol,
            "t_floor": direct.t_floor}


# -- one episode ----------------------------------------------------------
def read_fields(solver) -> dict:
    """Copies of the state fields in global cell order."""
    if hasattr(solver, "gather"):
        return {name: solver.gather(name) for name in checks.FIELDS}
    return {"y": solver.y.copy(), "h": solver.h.copy(),
            "p": solver.p.values.copy(), "u": solver.u.values.copy(),
            "rho": solver.rho.copy(),
            "T": solver.props.temperature.copy()}


@dataclass
class EpisodeResult:
    """What one episode measured and found."""

    n_cells: int
    setup_s: float
    step_s: list[float] = field(default_factory=list)
    attempted: int = 0
    #: ``(step, Problem)`` for every failed check or raised step
    problems: list[tuple[int, checks.Problem]] = field(default_factory=list)
    failed_steps: set[int] = field(default_factory=set)
    worker_peak_kb: int = 0
    dtype: str = ""
    fields: list[dict] = field(default_factory=list)

    def fail(self, step: int, problems: list[checks.Problem]) -> None:
        """Count ``step`` failed for ``problems`` (if any)."""
        if problems:
            self.failed_steps.add(step)
            self.problems.extend((step, p) for p in problems)


def _check_chemistry(calls, a, kinetics, rng, sample: bool) -> list:
    out = []
    for call in calls:
        tol = chemistry_tolerances(call.adapter)
        out += checks.check_elements(a, call.y, call.y_new, tol["elem_rel"],
                                     tol["elem_abs"])
        if sample:
            cells = rng.choice(call.t.size, min(RADAU_CELLS, call.t.size),
                               replace=False)
            out += checks.check_chemistry_sample(
                kinetics.constant_pressure_rhs, call.t, call.p, call.y,
                call.t_new, call.y_new, cells, call.dt, tol["t_floor"],
                tol["tol_y"], tol["tol_t"])
    return out


def _close(solver) -> None:
    """Stop a decomposed solver's workers (serial solvers hold none)."""
    close = getattr(solver, "close", None)
    if close is not None:
        close()


def run_episode(wl: Workload, seed: int, episode: int, tap: ChemistryTap,
                reference: list[dict] | None = None, tracer=None,
                keep_fields: bool = False) -> EpisodeResult:
    """Build, step ``wl.steps`` times with checks, close.

    ``reference`` holds the undecomposed run's fields after each step
    (decomposed workloads); ``tracer`` wraps the steps in spans and
    records the per-layer figures; ``keep_fields`` keeps every step's
    fields on the result.
    """
    if tracer is not None:
        tracer.begin_episode(episode)
    t0 = time.perf_counter()
    case = wl.build_case()
    solver = build_solver(case, wl.settings(seed))
    res = EpisodeResult(case.mesh.n_cells, time.perf_counter() - t0)
    try:
        if tracer is not None:
            tracer.after_setup(solver)
        rng = np.random.default_rng([seed, episode + 1])
        sample_step = int(rng.integers(wl.steps))
        a = checks.element_matrix(case.mech)
        kinetics = KineticsEvaluator(case.mech)
        volumes = case.mesh.cell_volumes
        f0 = read_fields(solver)
        res.dtype = str(f0["y"].dtype)
        t_range = (float(f0["T"].min()), float(f0["T"].max()))
        m0 = m_prev = checks.total_mass(f0["rho"], volumes)
        for k in range(wl.steps):
            tap.calls.clear()
            t1 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.step(solver, DT, k)
                else:
                    solver.step(DT)
            except Exception as exc:  # a diverged step: count, stop
                res.attempted += wl.steps - k
                for j in range(k, wl.steps):
                    res.fail(j + 1, [checks.Problem(
                        "raised", f"{type(exc).__name__}: {exc}")])
                break
            wall = time.perf_counter() - t1
            res.step_s.append(wall)
            res.attempted += 1
            if tracer is not None:
                tracer.after_step(solver, wall)
            f = read_fields(solver)
            found = checks.check_fields(f)
            found += checks.check_temperature(f["T"], t_range)
            if wl.periodic:
                m = checks.total_mass(f["rho"], volumes)
                found += checks.check_mass(m_prev, m, m0)
                m_prev = m
            found += _check_chemistry(tap.calls, a, kinetics, rng,
                                      sample=k == sample_step)
            if reference is not None and k < len(reference):
                found += checks.check_agreement(f, reference[k])
            res.fail(k + 1, found)
            if keep_fields:
                res.fields.append(f)
        pool = worker_pool(solver)
        if pool is not None:
            # the pool exposes no public list of its worker processes
            res.worker_peak_kb = sum(peak_rss_kb(p.pid) for p in pool._procs)
    finally:
        _close(solver)
    return res


def reference_run(wl: Workload, seed: int,
                  tap: ChemistryTap) -> EpisodeResult:
    """Untimed undecomposed episode whose checked fields the decomposed
    episodes must reproduce; episodes are deterministic, so one
    reference per run serves every episode."""
    return run_episode(wl.undecomposed(), seed, -1, tap, keep_fields=True)


def measure_setup(wl: Workload, seed: int) -> float:
    """One extra set-up: build case and solver, then close."""
    t0 = time.perf_counter()
    solver = build_solver(wl.build_case(), wl.settings(seed))
    elapsed = time.perf_counter() - t0
    _close(solver)
    return elapsed
