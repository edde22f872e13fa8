"""The exact sample-path worst-case model as LP-format text.

``emit_nature_miqp`` serializes the model (binary skip indicators, big-M
linearization, one quadratic variance row) for an external solver.  It
writes text only, so this module imports no numpy;
``pricing.solve_nature_miqp_exact`` solves the same model in-process.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MomentEnvelope, PriceGrid, require_finite, require_horizon

__all__ = ["MiqpModel", "emit_nature_miqp"]


@dataclass(frozen=True)
class MiqpModel:
    """Structure of the serialized worst-case sample model.

    ``variables`` lists the continuous columns (the toll column is always
    present, pinned via its bounds when fixed); ``binaries`` the per-period
    skip indicators; ``rows`` the constraint names in emission order.
    """

    variables: tuple[str, ...]
    binaries: tuple[str, ...]
    rows: tuple[str, ...]
    big_M: float
    r_fixed: float | None
    epsilon: float | None

    @property
    def n_continuous(self) -> int:
        return len(self.variables)

    @property
    def n_binary(self) -> int:
        return len(self.binaries)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_nature_miqp(
    grid: PriceGrid,
    env: MomentEnvelope,
    T: int,
    r: float | None = None,
    epsilon: float | None = None,
    big_M: float | None = None,
) -> tuple[MiqpModel, str]:
    """Serialize the exact worst-case model for an external solver.

    Nature chooses per-period costs c_i in [q, Q] subject to the sample-mean
    band and the one quadratic sample-variance row; binary y_i marks periods
    that skip the toll; z_i collects the revenue shortfall r - c_i on paying
    periods via big-M rows.  Objective: minimize r - (1/T) * sum z_i.  The
    toll column is always emitted and pinned by bounds when ``r`` is given;
    ``epsilon`` adds the optional usage cap on sum y_i.  Output is LP-format
    text with deterministic ordering, suitable for CPLEX/Gurobi/SCIP.
    """
    env.validate_against(grid)
    require_horizon(T, 1)
    if r is not None:
        grid.require_toll(r)
    if epsilon is not None and not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if big_M is None:
        big_M = grid.Q
    else:
        require_finite(big_M=big_M)
        if big_M < grid.Q:
            raise ValueError("big_M must be >= the grid ceiling")
    M = _fmt(big_M)
    idx = range(1, T + 1)

    lines = [f"\\ worst-case sample model, T={T}, M={M}"]
    obj_terms = " ".join(f"- {_fmt(1.0 / T)} z{i}" for i in idx)
    lines += ["Minimize", f" obj: r {obj_terms}", "Subject To"]

    rows: list[str] = []

    def add_row(name: str, body: str) -> None:
        rows.append(name)
        lines.append(f" {name}: {body}")

    csum = " + ".join(f"c{i}" for i in idx)
    add_row("mean_lo", f"{csum} >= {_fmt(T * env.u_lower)}")
    add_row("mean_hi", f"{csum} <= {_fmt(T * env.u_upper)}")
    quad = " + ".join(f"{_fmt(float(T - 1))} c{i} ^ 2" for i in idx)
    for i in idx:
        for j in range(i + 1, T + 1):
            quad += f" - 2 c{i} * c{j}"
    lin = "".join(f" - {_fmt(env.kappa_bar * (T - 1))} c{i}" for i in idx)
    add_row("variance", f"[ {quad} ]{lin} <= 0")
    for i in idx:
        add_row(f"zlo_{i}", f"z{i} - r + c{i} >= 0")
        add_row(f"yind_{i}", f"r - c{i} + {M} y{i} >= 0")
        add_row(f"zoff_{i}", f"z{i} + {M} y{i} <= {M}")
        add_row(f"zup_{i}", f"z{i} - r + c{i} - u{i} + v{i} <= 0")
        add_row(f"uon_{i}", f"u{i} - {M} y{i} <= 0")
        add_row(f"von_{i}", f"v{i} - {M} y{i} <= 0")
        add_row(f"vcap_{i}", f"v{i} - c{i} <= 0")
        add_row(f"ucap_{i}", f"u{i} - r <= 0")
        add_row(f"ulo_{i}", f"r - u{i} + {M} y{i} <= {M}")
    if epsilon is not None:
        ysum = " + ".join(f"y{i}" for i in idx)
        add_row("usage", f"{ysum} <= {_fmt(epsilon * T)}")

    lines.append("Bounds")
    if r is not None:
        lines.append(f" r = {_fmt(r)}")
    else:
        lines.append(f" {_fmt(grid.q)} <= r <= {_fmt(grid.Q)}")
    for i in idx:
        lines.append(f" {_fmt(grid.q)} <= c{i} <= {_fmt(grid.Q)}")
    lines.append("Binaries")
    for i in idx:
        lines.append(f" y{i}")
    lines.append("End")

    variables = ("r",) + tuple(
        f"{stem}{i}" for i in idx for stem in ("c", "z", "u", "v")
    )
    model = MiqpModel(
        variables=variables,
        binaries=tuple(f"y{i}" for i in idx),
        rows=tuple(rows),
        big_M=float(big_M),
        r_fixed=None if r is None else float(r),
        epsilon=epsilon,
    )
    return model, "\n".join(lines) + "\n"
