"""Per-step physics checks of the reacting step.

Every check is a pure function of arrays and returns a list of
problems (empty when the check passes), so the self-tests can feed it
deliberately corrupted inputs.  Each tolerance comes from the method's
stated accuracy, not from today's output; README.md gives the
derivation of each one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: the state fields every check reads, in global cell order
FIELDS = ("y", "h", "p", "u", "rho", "T")

#: ``finish_species`` clips Y to [0, 1] and renormalises every step, so
#: bounds and the sum hold to round-off: 17 terms x 2.2e-16 ~ 4e-15
Y_ROUNDOFF = 1e-12

#: Upwind advection-diffusion of enthalpy is monotone, so T can leave
#: its initial range only through pressure work (dp/p ~ 1e-4 over an
#: episode heats by ~0.01 K) and the 1e-8-relative Newton tolerance of
#: T(h).  One kelvin is 100x that; crossing it is the divergence onset.
T_MARGIN_K = 1.0

#: The conservative FV update changes total mass on a periodic box
#: only by dt * sum(r) of the last pressure solve, at most its
#: normalised residual relative to the mass; the default pressure
#: controls stop at an absolute 1e-9.
MASS_REL_PER_STEP = 1e-9

#: decomposed-vs-undecomposed agreement the distributed solver
#: documents (repro.dist.solver) and its tests pin
AGREEMENT_TOL = 1e-8


@dataclass(frozen=True)
class Problem:
    """One failed check: which check, and what it saw."""

    check: str
    detail: str


def check_fields(f: dict) -> list[Problem]:
    """All fields finite; 0 <= Y <= 1 and sum(Y) = 1 per cell."""
    out = []
    for name in FIELDS:
        bad = ~np.isfinite(f[name])
        if bad.any():
            out.append(Problem("finite", f"{name}: {int(bad.sum())} "
                                         f"non-finite entries"))
    y = f["y"]
    if np.isfinite(y).all():
        lo, hi = float(y.min()), float(y.max())
        if lo < -Y_ROUNDOFF or hi > 1.0 + Y_ROUNDOFF:
            out.append(Problem("y_bounds", f"Y in [{lo:.3e}, {hi:.3e}]"))
        dev = float(np.abs(y.sum(axis=1) - 1.0).max())
        if dev > Y_ROUNDOFF:
            out.append(Problem("y_sum", f"max |sum(Y) - 1| = {dev:.3e}"))
    return out


def check_temperature(t: np.ndarray, t_range: tuple[float, float],
                      margin: float = T_MARGIN_K) -> list[Problem]:
    """T inside the episode's initial range widened by ``margin``."""
    if not np.isfinite(t).all():
        return []  # reported by check_fields
    lo, hi = float(t.min()), float(t.max())
    if lo < t_range[0] - margin or hi > t_range[1] + margin:
        return [Problem("t_range",
                        f"T in [{lo:.3f}, {hi:.3f}] K leaves the initial "
                        f"[{t_range[0]:.3f}, {t_range[1]:.3f}] K "
                        f"+- {margin} K")]
    return []


def total_mass(rho: np.ndarray, volumes: np.ndarray) -> float:
    """sum(rho * V) over the cells."""
    return float(np.dot(rho, volumes))


def check_mass(m_prev: float, m_now: float, m0: float,
               tol: float = MASS_REL_PER_STEP) -> list[Problem]:
    """Step-over-step total-mass change relative to the initial mass."""
    rel = abs(m_now - m_prev) / abs(m0)
    if not rel <= tol:
        return [Problem("mass", f"|dm|/m0 = {rel:.3e} > {tol:.0e}")]
    return []


def element_matrix(mech) -> np.ndarray:
    """``A[e, k] = n_ek / W_k``: moles of element e per kg of species k.

    Built from the species compositions and molecular weights only,
    so ``y @ A.T`` gives element moles per kg without the mechanism's
    own element bookkeeping.
    """
    elements = sorted({e for sp in mech.species for e in sp.composition})
    return np.array([[sp.composition.get(e, 0) / sp.molecular_weight
                      for sp in mech.species] for e in elements])


def check_elements(a: np.ndarray, y_in: np.ndarray, y_out: np.ndarray,
                   rel: float, abs_y: float) -> list[Problem]:
    """Element moles per kg conserved by one chemistry advance.

    A per-species accuracy ``|dY_k| <= rel * |Y_k| + abs_y`` bounds the
    element drift by ``rel * |b_e| + abs_y * sum_k A[e, k]``.
    """
    b_in = y_in @ a.T
    drift = np.abs(y_out @ a.T - b_in)
    bound = rel * np.abs(b_in) + abs_y * a.sum(axis=1)
    excess = drift - bound
    if not (excess <= 0).all():
        cell, el = np.unravel_index(np.nanargmax(
            np.where(np.isfinite(excess), excess, np.inf)), excess.shape)
        return [Problem("elements",
                        f"cell {cell}: element {el} moved "
                        f"{drift[cell, el]:.3e} mol/kg "
                        f"> {bound[cell, el]:.3e}")]
    return []


def radau_reference(rhs, t0: float, p: float, y0: np.ndarray, dt: float,
                    t_floor: float) -> tuple[float, np.ndarray]:
    """Independent stiff integration of one cell over ``dt``.

    ``rhs(T, p, Y) -> (dT/dt, dY/dt)`` is the mechanism's
    constant-pressure reactor RHS; T is floored and Y clipped exactly as
    the chemistry backends evaluate it.  The tolerances sit two decades
    below the tightest check tolerance.
    """
    from scipy.integrate import solve_ivp

    def f(_t, s):
        cols = s.reshape(s.shape[0], -1)
        temp = np.maximum(cols[0], t_floor)
        dtdt, dydt = rhs(temp, np.full(temp.shape, p),
                         np.clip(cols[1:], 0.0, 1.0).T)
        return np.vstack((dtdt[None, :], dydt.T)).reshape(s.shape)

    sol = solve_ivp(f, (0.0, dt), np.concatenate(([t0], y0)),
                    method="Radau", rtol=1e-8, atol=1e-12, vectorized=True)
    if not sol.success:
        raise RuntimeError(f"reference Radau integration failed: "
                           f"{sol.message}")
    return float(sol.y[0, -1]), sol.y[1:, -1]


def check_chemistry_sample(rhs, t_in, p_in, y_in, t_out, y_out, cells,
                           dt: float, t_floor: float, tol_y: float,
                           tol_t: float | None) -> list[Problem]:
    """Sampled cells of one advance against :func:`radau_reference`.

    ``tol_t`` is ``None`` where the chemistry path does not return a
    temperature the solver could adopt (the surrogate passes T through).
    """
    out = []
    for c in cells:
        t_ref, y_ref = radau_reference(rhs, t_in[c], p_in[c], y_in[c], dt,
                                       t_floor)
        dy = float(np.abs(y_out[c] - y_ref).max())
        if not dy <= tol_y:
            out.append(Problem("chemistry",
                               f"cell {c}: max |Y - Y_radau| = {dy:.3e} "
                               f"> {tol_y:.0e}"))
        if tol_t is not None:
            d_t = abs(float(t_out[c]) - t_ref)
            if not d_t <= tol_t:
                out.append(Problem("chemistry",
                                   f"cell {c}: |T - T_radau| = {d_t:.3e} K "
                                   f"> {tol_t} K"))
    return out


def field_differences(f: dict, ref: dict) -> dict:
    """The decomposed-vs-serial distances ``tests/test_dist.py`` gates."""
    return {
        "y": float(np.abs(f["y"] - ref["y"]).max()),
        "T": float(np.abs(f["T"] - ref["T"]).max()),
        "p_rel": float(np.abs((f["p"] - ref["p"]) / ref["p"]).max()),
        "u": float(np.abs(f["u"] - ref["u"]).max()),
        "h_rel": float(np.abs((f["h"] - ref["h"]) / ref["h"]).max()),
    }


def check_agreement(f: dict, ref: dict,
                    tol: float = AGREEMENT_TOL) -> list[Problem]:
    """Decomposed fields within ``tol`` of the undecomposed run."""
    diffs = field_differences(f, ref)
    bad = {k: v for k, v in diffs.items() if not v <= tol}
    if bad:
        return [Problem("agreement", ", ".join(
            f"{k} {v:.2e}" for k, v in bad.items()) + f" > {tol:.0e}")]
    return []
