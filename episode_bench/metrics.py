"""Metric arithmetic: end-to-end figures and the per-layer rollup.

Pure functions over plain records, so the self-tests can check them on
a synthetic run.
"""

from __future__ import annotations

import statistics

#: per-layer metrics read from spans, normalised per traced step:
#: ``(metric, span name, what)`` where ``what`` is ``"time"`` (summed
#: duration of the outermost spans of that name), ``"calls"`` (span
#: count) or a counter key summed over the spans
SPAN_METRICS = (
    ("thermo.properties_s", "thermo.properties", "time"),
    ("thermo.psi_s", "thermo.psi", "time"),
    ("thermo.newton_iters", "thermo.newton", "calls"),
    ("thermo.roots_calls", "thermo.roots", "calls"),
    ("thermo.roots_s", "thermo.roots", "time"),
    ("thermo.mix_calls", "thermo.mix", "calls"),
    ("thermo.mix_s", "thermo.mix", "time"),
    ("thermo.transport_s", "thermo.transport", "time"),
    ("chemistry.advance_s", "chemistry.advance", "time"),
    ("chemistry.direct_s", "chemistry.direct", "time"),
    ("chemistry.rhs_evals", "chemistry.direct", "rhs_evals"),
    ("chemistry.jac_evals", "chemistry.direct", "jac_evals"),
    ("chemistry.linear_solves", "chemistry.direct", "linear_solves"),
    ("chemistry.surrogate_cells", "chemistry.hybrid", "surrogate_cells"),
    ("chemistry.gated_out_cells", "chemistry.hybrid", "gated_out_cells"),
    ("chemistry.audited_cells", "chemistry.hybrid", "audited_cells"),
    ("dnn.surrogate_s", "dnn.surrogate", "time"),
    ("fv.assembly_s", "fv.assembly", "time"),
    ("fv.assembly_calls", "fv.assembly", "calls"),
    ("solvers.solve_s", "solvers.solve", "time"),
    ("solvers.solves", "solvers.solve", "calls"),
    ("solvers.krylov_iters", "solvers.solve", "iterations"),
    ("solvers.unconverged", "solvers.solve", "unconverged"),
)

STAGES = ("dnn", "construction", "solving", "other")

#: ``(metric, unit, better)`` of the end-to-end metrics
END_TO_END = (
    ("cell_steps_per_s", "cell-steps/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(metric, unit, better)`` of the per-layer metrics, per traced step
PER_LAYER = (
    ("core.stage_dnn_s", "s", "lower"),
    ("core.stage_construction_s", "s", "lower"),
    ("core.stage_solving_s", "s", "lower"),
    ("core.stage_other_s", "s", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("thermo.properties_s", "s", "lower"),
    ("thermo.psi_s", "s", "lower"),
    ("thermo.newton_iters", "count", "lower"),
    ("thermo.roots_calls", "count", "lower"),
    ("thermo.roots_s", "s", "lower"),
    ("thermo.mix_calls", "count", "lower"),
    ("thermo.mix_s", "s", "lower"),
    ("thermo.transport_s", "s", "lower"),
    ("chemistry.advance_s", "s", "lower"),
    ("chemistry.direct_s", "s", "lower"),
    ("chemistry.rhs_evals", "count", "lower"),
    ("chemistry.jac_evals", "count", "lower"),
    ("chemistry.linear_solves", "count", "lower"),
    ("chemistry.surrogate_cells", "count", "higher"),
    ("chemistry.gated_out_cells", "count", "lower"),
    ("chemistry.audited_cells", "count", "lower"),
    ("chemistry.surrogate_frac", "ratio", "higher"),
    ("dnn.surrogate_s", "s", "lower"),
    ("fv.assembly_s", "s", "lower"),
    ("fv.assembly_calls", "count", "lower"),
    ("solvers.solve_s", "s", "lower"),
    ("solvers.solves", "count", "lower"),
    ("solvers.krylov_iters", "count", "lower"),
    ("solvers.unconverged", "count", "lower"),
    ("comm.messages", "count", "lower"),
    ("comm.bytes", "B", "lower"),
    ("comm.allreduces", "count", "lower"),
    ("dist.rank_imbalance", "ratio", "lower"),
    ("runtime.unattributed_s", "s", "lower"),
    ("trace.cell_steps_per_s", "cell-steps/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def cell_steps_per_s(n_cells: int, step_seconds: list[float]) -> float:
    """Cells x timed steps / summed wall time of the ``step()`` calls."""
    total = sum(step_seconds)
    if not step_seconds or total <= 0.0:
        raise ValueError("no timed steps")
    return n_cells * len(step_seconds) / total


def _outermost(spans: list[dict]) -> list[bool]:
    """Per span: no enclosing span carries the same name."""
    by_id = {s["id"]: s for s in spans}
    flags = []
    for s in spans:
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        flags.append(parent is None)
    return flags


def layer_metrics(spans: list[dict], steps: list[dict]) -> dict:
    """Per-layer figures per traced step.

    ``spans`` are the traced episodes' spans (set-up spans, tagged step
    -1, are left out); ``steps`` the per-step records of
    :class:`tracing.Tracer`.  Layers a workload does not run read 0.
    """
    n = len(steps)
    if n == 0:
        raise ValueError("no traced steps")
    spans = [s for s in spans if s["step"] >= 0]
    outer = _outermost(spans)
    out = {}
    for metric, name, what in SPAN_METRICS:
        total = 0.0
        for s, top in zip(spans, outer):
            if s["name"] != name:
                continue
            if what == "time":
                total += (s["t1"] - s["t0"]) if top else 0.0
            elif what == "calls":
                total += 1
            else:
                total += (s["counts"] or {}).get(what, 0)
        out[metric] = total / n

    hybrid = [s["counts"] for s in spans
              if s["name"] == "chemistry.hybrid" and s["counts"]]
    cells = sum(c["cells"] for c in hybrid)
    # share of chemistry cells whose adopted result is the surrogate's
    # (audited cells are re-run through direct integration)
    out["chemistry.surrogate_frac"] = (
        sum(c["surrogate_cells"] - c["audited_cells"] for c in hybrid)
        / cells if cells else 0.0)

    for stage in STAGES:
        out[f"core.stage_{stage}_s"] = sum(
            st["stages"][stage] for st in steps) / n
    out["core.unattributed_s"] = sum(
        st["wall"] - sum(st["stages"].values()) for st in steps) / n

    comm = [st["comm"] or {} for st in steps]
    out["comm.messages"] = sum(c.get("messages", 0) for c in comm) / n
    out["comm.bytes"] = sum(c.get("bytes", 0) for c in comm) / n
    out["comm.allreduces"] = sum(c.get("allreduces", 0) for c in comm) / n

    ranked = [st for st in steps if st["rank_totals"]]
    out["dist.rank_imbalance"] = sum(
        max(st["rank_totals"]) / statistics.fmean(st["rank_totals"]) - 1.0
        for st in ranked) / n
    out["runtime.unattributed_s"] = sum(
        st["wall"] - max(st["rank_totals"]) for st in ranked) / n
    return out


def self_times(spans: list[dict], n_steps: int) -> list[tuple]:
    """``(name, calls, inclusive_s, self_s)`` per step, by self time.

    Self time is a span's duration minus the durations of its direct
    children; inclusive time counts only the outermost span of a name.
    """
    spans = [s for s in spans if s["step"] >= 0]
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = (child.get(s["parent"], 0.0)
                                  + s["t1"] - s["t0"])
    rows: dict[str, list[float]] = {}
    for s, top in zip(spans, _outermost(spans)):
        dur = s["t1"] - s["t0"]
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur if top else 0.0
        row[2] += dur - child.get(s["id"], 0.0)
    table = [(name, calls / n_steps, incl / n_steps, own / n_steps)
             for name, (calls, incl, own) in rows.items()]
    return sorted(table, key=lambda r: -r[3])


def format_self_times(table: list[tuple]) -> str:
    """The self-time table as aligned text."""
    lines = [f"{'span':<22}{'calls/step':>12}{'incl s/step':>14}"
             f"{'self s/step':>14}"]
    for name, calls, incl, own in table:
        lines.append(f"{name:<22}{calls:>12.1f}{incl:>14.6f}{own:>14.6f}")
    return "\n".join(lines) + "\n"
