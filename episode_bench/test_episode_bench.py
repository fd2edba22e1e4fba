"""Self-tests of the episode benchmark: every check fires on a corrupted
input, and the metric arithmetic is right on a synthetic run.

    python3 -m pytest episode_bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402


@pytest.fixture(scope="module")
def mech():
    from repro.chemistry import load_mechanism

    return load_mechanism()


@pytest.fixture()
def fields(mech):
    rng = np.random.default_rng(0)
    n = 64
    y = rng.random((n, mech.n_species))
    y /= y.sum(axis=1, keepdims=True)
    return {"y": y, "h": rng.normal(-1e5, 1e4, n),
            "p": np.full(n, 1e7) + rng.normal(0, 10, n),
            "u": rng.normal(0, 4, (n, 3)), "rho": rng.uniform(50, 1000, n),
            "T": rng.uniform(150, 300, n)}


def _checks(problems):
    return {p.check for p in problems}


class TestChecksFire:
    def test_clean_fields_pass(self, fields):
        assert checks.check_fields(fields) == []

    @pytest.mark.parametrize("name", checks.FIELDS)
    def test_nan_field(self, fields, name):
        fields[name].flat[3] = np.nan
        assert _checks(checks.check_fields(fields)) == {"finite"}

    def test_sum_y_off_one(self, fields):
        fields["y"][5] *= 1.0 + 1e-6
        assert "y_sum" in _checks(checks.check_fields(fields))

    def test_negative_y(self, fields):
        fields["y"][7, 1] += fields["y"][7, 0] + 1e-6  # sum stays one
        fields["y"][7, 0] = -1e-6
        assert _checks(checks.check_fields(fields)) == {"y_bounds"}

    def test_temperature_outside_margin(self, fields):
        t_range = (float(fields["T"].min()), float(fields["T"].max()))
        assert checks.check_temperature(fields["T"], t_range) == []
        fields["T"][0] = t_range[1] + 0.5 * checks.T_MARGIN_K
        assert checks.check_temperature(fields["T"], t_range) == []
        fields["T"][0] = t_range[1] + 2.0 * checks.T_MARGIN_K
        assert _checks(checks.check_temperature(fields["T"], t_range)) \
            == {"t_range"}

    def test_mass_drift(self):
        m0 = 1.3e-5
        assert checks.check_mass(m0, m0 * (1 + 1e-12), m0) == []
        assert _checks(checks.check_mass(m0, m0 * (1 + 1e-7), m0)) \
            == {"mass"}

    def test_perturbed_rank_field(self, fields):
        ref = {k: v.copy() for k, v in fields.items()}
        assert checks.check_agreement(fields, ref) == []
        fields["p"][11] *= 1.0 + 1e-6
        problems = checks.check_agreement(fields, ref)
        assert _checks(problems) == {"agreement"}
        assert "p_rel" in problems[0].detail


class TestChemistryChecks:
    @pytest.fixture(scope="class")
    def advance(self, mech):
        """Two hot rocket cells advanced by the direct backend."""
        from repro.core.cases import build_rocket_case
        from repro.core.chemistry_source import BatchedChemistry

        case = build_rocket_case(mech=mech)
        cells = np.argsort(case.temperature)[-2:]
        t = np.asarray(case.temperature, dtype=float)[cells]
        p = case.pressure.values[cells].copy()
        y = np.asarray(case.mass_fractions, dtype=float)[cells]
        adapter = BatchedChemistry(mech)
        t_new, y_new = adapter.advance(t, p, y, 1e-8)
        return adapter, t, p, y, t_new, y_new

    def _tol(self, adapter):
        import episode

        return episode.chemistry_tolerances(adapter)

    def test_elements_pass_then_fire(self, mech, advance):
        adapter, _, _, y, _, y_new = advance
        tol = self._tol(adapter)
        a = checks.element_matrix(mech)
        assert checks.check_elements(a, y, y_new, tol["elem_rel"],
                                     tol["elem_abs"]) == []
        bad = y_new.copy()
        i_o2, i_ch4 = mech.species_index["O2"], mech.species_index["CH4"]
        bad[0, i_o2] -= 1e-4
        bad[0, i_ch4] += 1e-4
        assert _checks(checks.check_elements(
            a, y, bad, tol["elem_rel"], tol["elem_abs"])) == {"elements"}

    def test_radau_pass_then_fire(self, mech, advance):
        from repro.chemistry.kinetics import KineticsEvaluator

        adapter, t, p, y, t_new, y_new = advance
        tol = self._tol(adapter)
        rhs = KineticsEvaluator(mech).constant_pressure_rhs
        args = dict(cells=[0, 1], dt=1e-8, t_floor=tol["t_floor"],
                    tol_y=tol["tol_y"], tol_t=tol["tol_t"])
        assert checks.check_chemistry_sample(rhs, t, p, y, t_new, y_new,
                                             **args) == []
        bad_y = y_new.copy()
        bad_y[1] += 10 * tol["tol_y"] * np.eye(y.shape[1])[0]
        assert _checks(checks.check_chemistry_sample(
            rhs, t, p, y, t_new, bad_y, **args)) == {"chemistry"}
        bad_t = t_new.copy()
        bad_t[0] += 10 * tol["tol_t"]
        assert _checks(checks.check_chemistry_sample(
            rhs, t, p, y, bad_t, y_new, **args)) == {"chemistry"}


def _span(sid, parent, name, t0, t1, step=0, counts=None):
    return {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1,
            "pid": 1, "episode": 0, "step": step, "counts": counts}


class TestMetricArithmetic:
    def test_cell_steps_per_s(self):
        assert metrics.cell_steps_per_s(4096, [0.5, 0.5, 1.0]) \
            == pytest.approx(4096 * 3 / 2.0)
        with pytest.raises(ValueError):
            metrics.cell_steps_per_s(10, [])

    def test_layer_rollup_on_synthetic_run(self):
        spans = [
            # a set-up span (step -1) is left out
            _span("s", None, "thermo.properties", 0.0, 9.0, step=-1),
            # step 0: properties 1.0 s containing a mix span and a
            # nested roots span that itself contains roots (outermost
            # rule: roots time counts 0.6, calls count 2)
            _span("a", "c", "thermo.properties", 0.0, 1.0),
            _span("b", "a", "thermo.roots", 0.1, 0.7),
            _span("b2", "b", "thermo.roots", 0.2, 0.4),
            _span("m", "b2", "thermo.mix", 0.25, 0.35),
            _span("c", None, "core.step", 0.0, 2.0),
            _span("h", "c", "chemistry.hybrid", 1.0, 1.5, counts={
                "cells": 100, "surrogate_cells": 90, "direct_cells": 10,
                "gated_out_cells": 4, "audited_cells": 2,
                "audit_failures": 0}),
            _span("d", "h", "chemistry.direct", 1.1, 1.3, counts={
                "cells": 12, "rhs_evals": 50, "jac_evals": 5,
                "linear_solves": 20}),
            _span("k", "c", "solvers.solve", 1.5, 1.9, counts={
                "columns": 17, "iterations": 34, "unconverged": 1}),
            # step 1: one more solve
            _span("k2", None, "solvers.solve", 3.0, 3.2, step=1, counts={
                "columns": 1, "iterations": 6, "unconverged": 0}),
        ]
        steps = [
            {"wall": 2.0, "stages": {"dnn": 1.5, "construction": 0.1,
                                     "solving": 0.3, "other": 0.05},
             "comm": {"messages": 10, "bytes": 800, "allreduces": 4},
             "rank_totals": [1.8, 1.2]},
            {"wall": 1.0, "stages": {"dnn": 0.5, "construction": 0.1,
                                     "solving": 0.2, "other": 0.0},
             "comm": {"messages": 6, "bytes": 400, "allreduces": 2},
             "rank_totals": [0.9, 0.9]},
        ]
        m = metrics.layer_metrics(spans, steps)
        assert set(m) == {n for n, _, _ in metrics.PER_LAYER} - {
            "trace.cell_steps_per_s", "trace.overhead"}
        assert m["thermo.properties_s"] == pytest.approx(0.5)
        assert m["thermo.roots_s"] == pytest.approx(0.3)
        assert m["thermo.roots_calls"] == pytest.approx(1.0)
        assert m["thermo.mix_calls"] == pytest.approx(0.5)
        assert m["chemistry.rhs_evals"] == pytest.approx(25)
        assert m["chemistry.audited_cells"] == pytest.approx(1)
        assert m["chemistry.surrogate_frac"] == pytest.approx(0.88)
        assert m["solvers.solves"] == pytest.approx(1.0)
        assert m["solvers.krylov_iters"] == pytest.approx(20)
        assert m["solvers.unconverged"] == pytest.approx(0.5)
        assert m["solvers.solve_s"] == pytest.approx(0.3)
        assert m["core.stage_dnn_s"] == pytest.approx(1.0)
        assert m["core.unattributed_s"] == pytest.approx(
            ((2.0 - 1.95) + (1.0 - 0.8)) / 2)
        assert m["comm.bytes"] == pytest.approx(600)
        assert m["dist.rank_imbalance"] == pytest.approx((1.8 / 1.5 - 1) / 2)
        assert m["runtime.unattributed_s"] == pytest.approx(
            ((2.0 - 1.8) + (1.0 - 0.9)) / 2)
        assert m["thermo.psi_s"] == 0.0

        table = {r[0]: r for r in metrics.self_times(spans, len(steps))}
        # core.step 2.0 s minus its children (1.0 + 0.5 + 0.4)
        assert table["core.step"][3] == pytest.approx(0.1 / 2)
        assert table["thermo.roots"][2] == pytest.approx(0.6 / 2)
        assert table["thermo.roots"][3] == pytest.approx(
            ((0.6 - 0.2) + (0.2 - 0.1)) / 2)


class TestHarness:
    def test_benchmark_json_matches_declarations(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"], m["better"])
                for m in bench["end_to_end"]] == list(metrics.END_TO_END)
        assert [(m["name"], m["unit"], m["better"])
                for m in bench["per_layer"]] == list(metrics.PER_LAYER)
        import episode

        assert [w["name"] for w in bench["workloads"]] \
            == list(episode.WORKLOADS)

    def test_tracer_restores_entry_points(self):
        import tracing
        from repro.dist.spmd import RankStepper
        from repro.thermo.mixing import VanDerWaalsMixing

        before = vars(VanDerWaalsMixing)["mix"]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert vars(VanDerWaalsMixing)["mix"] is not before
            assert hasattr(RankStepper, "bench_drain_spans")
        finally:
            tracer.uninstall()
        assert vars(VanDerWaalsMixing)["mix"] is before
        assert not hasattr(RankStepper, "bench_drain_spans")

    def test_refuses_to_run_without_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "tgv-hybrid", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert out.stdout == ""

    def test_stop_children_leaves_no_process(self):
        import multiprocessing as mp
        import os
        import time
        from multiprocessing import resource_tracker

        import host
        from repro.runtime.shm import SharedArena

        arena = SharedArena(1)       # starts the resource tracker
        arena.close()
        tracker = resource_tracker._resource_tracker._pid
        worker = mp.get_context("fork").Process(target=time.sleep,
                                                args=(60,), daemon=True)
        worker.start()
        assert tracker is not None and worker.is_alive()
        host.stop_children()
        assert not worker.is_alive() and not mp.active_children()
        with pytest.raises(ChildProcessError):   # ended and reaped
            os.waitpid(tracker, os.WNOHANG)
