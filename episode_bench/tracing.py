"""The traced run: spans around the public entry points of each layer.

Spans are recorded from outside the program.  :class:`Tracer` swaps a
timing wrapper onto each entry point listed in :data:`TARGETS` (a
class attribute or a module-level function) and restores the original
on :meth:`Tracer.uninstall`.  Spans are kept in memory and written out
when the run ends.

In a parallel decomposed run the ranks are forked after
:meth:`Tracer.install`, so the workers inherit the wrappers and record
into their own copy of the recorder.  After every step the main process
drains each worker's spans over the worker pool and tags them with the
episode, step and rank.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


def _backend_counts(out) -> dict:
    """Work counters of a direct chemistry ``advance`` -> (Y, T, stats)."""
    st = out[2]
    return {"cells": st.n_cells, "rhs_evals": st.rhs_evals,
            "jac_evals": st.jac_evals, "linear_solves": st.linear_solves}


def _gate_counts(out) -> dict:
    """Trust-gate counters of a hybrid chemistry ``advance``."""
    st = out[2]
    return {"cells": st.n_cells, **st.gate}


def _solve_counts(out) -> dict:
    """Krylov counters of a solve -> (x, result or [results])."""
    res = out[1] if isinstance(out[1], list) else [out[1]]
    return {"columns": len(res),
            "iterations": sum(r.iterations for r in res),
            "unconverged": sum(not r.converged for r in res)}


#: ``(module, class or None for a module function, attribute, span,
#: counter)``: the public entry point of each layer the step calls
TARGETS = (
    ("repro.core.properties", "DirectRealFluidProperties", "evaluate",
     "thermo.properties", None),
    ("repro.thermo.real_fluid", "RealFluidMixture", "psi_compressibility",
     "thermo.psi", None),
    ("repro.thermo.real_fluid", "RealFluidMixture", "h_mass",
     "thermo.newton", None),
    ("repro.thermo.cubic_eos", "CubicEos", "compressibility",
     "thermo.roots", None),
    ("repro.thermo.mixing", "VanDerWaalsMixing", "mix", "thermo.mix", None),
    ("repro.thermo.mixing", "VanDerWaalsMixing", "mix_derivative",
     "thermo.mix", None),
    ("repro.thermo.transport", "TransportModel", "viscosity",
     "thermo.transport", None),
    ("repro.thermo.transport", "TransportModel", "thermal_diffusivity",
     "thermo.transport", None),
    ("repro.core.chemistry_source", "BackendChemistry", "advance",
     "chemistry.advance", None),
    ("repro.chemistry.backends.hybrid", "HybridBackend", "advance",
     "chemistry.hybrid", _gate_counts),
    ("repro.chemistry.backends.direct", "DirectBatchBackend", "advance",
     "chemistry.direct", _backend_counts),
    ("repro.chemistry.backends.surrogate", "SurrogateBackend", "advance",
     "dnn.surrogate", None),
    ("repro.fv.workspace", "EquationWorkspace", "transport",
     "fv.assembly", None),
    ("repro.fv.workspace", "EquationWorkspace", "transport_multi",
     "fv.assembly", None),
    ("repro.fv.operators", "FVMatrix", "solve", "solvers.solve",
     _solve_counts),
    ("repro.fv.operators", "CoupledTransportEquation", "solve",
     "solvers.solve", _solve_counts),
    ("repro.dist.solver", None, "solve_distributed", "solvers.solve",
     _solve_counts),
    ("repro.dist.spmd", None, "solve_distributed", "solvers.solve",
     _solve_counts),
)


class Recorder:
    """In-memory span buffer of one process.

    A span is a dict: ``id``, ``parent`` (the enclosing span's id or
    ``None``), ``name``, ``t0``/``t1`` (``time.perf_counter``, which
    reads the system-wide monotonic clock, so worker and main-process spans
    share one time axis), ``pid``, ``episode``, ``step`` and
    ``counts``.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._seq = 0
        self.episode = -1
        self.step = -1

    def open(self, name: str) -> dict:
        """Start a span nested in the innermost open one."""
        if os.getpid() != self.pid:
            # first span in a forked worker: start its own buffer
            self.pid = os.getpid()
            self.spans, self._stack = [], []
        span = {"id": f"{self.pid}:{self._seq}",
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "t0": time.perf_counter(), "t1": None,
                "pid": self.pid, "episode": self.episode,
                "step": self.step, "counts": None}
        self._seq += 1
        self._stack.append(span)
        return span

    def close(self, span: dict, counts: dict | None = None) -> None:
        """End ``span`` (the innermost open one)."""
        span["t1"] = time.perf_counter()
        span["counts"] = counts
        self._stack.pop()
        self.spans.append(span)

    def drain(self) -> list[dict]:
        """Hand over the finished spans and start an empty buffer."""
        if os.getpid() != self.pid:
            return []
        out, self.spans = self.spans, []
        return out


def _traced(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(span)
            raise
        rec.close(span, counter(out) if counter is not None else None)
        return out
    return wrapper


def worker_pool(solver):
    """The worker pool of a parallel decomposed solver, else ``None``.

    Read from the solver's private executor: no public accessor exists.
    """
    executor = getattr(solver, "_parallel", None)
    return getattr(executor, "pool", None)


class Tracer:
    """Installs the span wrappers and collects one record per step.

    ``steps`` holds, per traced step, the step's wall time, the
    solver's ``last_timings`` stages, its ``last_comm`` ledger delta and
    (parallel runs) every rank's stage total from the pool replies.
    """

    def __init__(self):
        self.rec = Recorder()
        self.steps: list[dict] = []
        self.rank_labels: dict[int, str] = {self.rec.pid: "main"}
        self._saved: list[tuple] = []
        self._rank_totals: list[float] | None = None

    # -- wrappers -------------------------------------------------------
    def install(self) -> None:
        """Swap the span wrappers onto every target."""
        for module, cls, attr, name, counter in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, _traced(self.rec, name, orig, counter))

        from repro.dist.spmd import RankStepper
        from repro.runtime.executor import WorkerPool

        tracer = self
        broadcast = vars(WorkerPool)["broadcast"]

        @functools.wraps(broadcast)
        def traced_broadcast(pool, method, *args, **kwargs):
            out = broadcast(pool, method, *args, **kwargs)
            if method == "step":
                tracer._rank_totals = [r["timings"].total for r in out]
            return out

        self._saved.append((WorkerPool, "broadcast", broadcast))
        WorkerPool.broadcast = traced_broadcast
        rec = self.rec
        RankStepper.bench_drain_spans = lambda _stepper: rec.drain()
        self._saved.append((RankStepper, "bench_drain_spans", None))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    # -- per-episode / per-step hooks -------------------------------------
    def begin_episode(self, episode: int) -> None:
        """Tag what follows (the set-up) with ``episode`` and step -1."""
        self.rec.episode = episode
        self.rec.step = -1

    def after_setup(self, solver) -> None:
        """Collect the workers' set-up spans (tagged step -1)."""
        self._drain_workers(solver)

    def step(self, solver, dt: float, k: int):
        """``solver.step(dt)`` inside a ``core.step`` span."""
        self.rec.step = k
        span = self.rec.open("core.step")
        try:
            return solver.step(dt)
        finally:
            self.rec.close(span)

    def after_step(self, solver, wall: float) -> None:
        """Record the step's stage timings, comm and rank totals."""
        tm = solver.last_timings
        comm = getattr(solver, "last_comm", None)
        self.steps.append({
            "wall": wall,
            "stages": {"dnn": tm.dnn, "construction": tm.construction,
                       "solving": tm.solving, "other": tm.other},
            "comm": dict(comm) if comm else None,
            "rank_totals": self._rank_totals,
        })
        self._rank_totals = None
        self._drain_workers(solver)

    def _drain_workers(self, solver) -> None:
        pool = worker_pool(solver)
        if pool is None:
            return
        for rank, spans in enumerate(pool.broadcast("bench_drain_spans")):
            for s in spans:
                s["episode"], s["step"] = self.rec.episode, self.rec.step
                self.rank_labels[s["pid"]] = f"rank {rank}"
            self.rec.spans.extend(spans)


# -- export -------------------------------------------------------------
def trace_events(spans: list[dict], labels: dict[int, str]) -> dict:
    """Trace-event JSON (one track per process) of finished spans."""
    if not spans:
        return {"traceEvents": []}
    origin = min(s["t0"] for s in spans)
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
               "args": {"name": label}} for pid, label in labels.items()]
    for s in spans:
        events.append({
            "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
            "ts": (s["t0"] - origin) * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6,
            "pid": s["pid"], "tid": s["pid"],
            "args": {"episode": s["episode"], "step": s["step"],
                     **(s["counts"] or {})},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
