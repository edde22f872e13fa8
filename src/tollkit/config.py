"""Flat key-value run configuration shared by the CLI and the harnesses."""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, fields

from .core import PriceGrid, require_finite

__all__ = ["RunConfig", "parse_config"]

_INT_KEYS = {"T", "H", "seed"}
_FLOAT_KEYS = {"q", "Q", "step", "kappa_bar", "confidence_z"}


class _SettingError(ValueError):
    """A value out of range, with the config keys it involves."""

    def __init__(self, keys: tuple[str, ...], message: str) -> None:
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters. Unknown keys are rejected at parse time."""

    q: float = 0.0
    Q: float = 200.0
    step: float = 1.0
    T: int = 50
    H: int = 1
    kappa_bar: float = 1.0
    confidence_z: float = 1.96
    seed: int = 0

    def __post_init__(self) -> None:
        if self.T < 2:
            raise _SettingError(("T",), f"T must be >= 2, got {self.T}")
        if self.H < 1:
            raise _SettingError(("H",), f"H must be >= 1, got {self.H}")
        reals = {"kappa_bar": self.kappa_bar, "confidence_z": self.confidence_z}
        for key, value in reals.items():
            try:
                require_finite(**{key: value})
            except ValueError as exc:
                raise _SettingError((key,), str(exc)) from None
        for key, value in reals.items():
            if value < 0:
                raise _SettingError((key,), f"{key} must be >= 0")
        try:
            self.grid()  # validates q/Q/step
        except ValueError as exc:
            raise _SettingError(("q", "Q", "step"), str(exc)) from None

    def grid(self) -> PriceGrid:
        return PriceGrid(q=self.q, Q=self.Q, step=self.step)

    def items(self) -> list[tuple[str, object]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def parse_config(source: str | io.TextIOBase, **overrides: object) -> RunConfig:
    """Parse ``key = value`` lines; '#' starts a comment; unknown keys error.

    A line that cannot be read, or a value out of range, is a
    ``ValueError`` that starts with ``where:line:``, where ``where`` is the
    path or ``<stream>``; a range error involving several keys names the
    line of the last of them.  Errors in ``overrides`` name no line.
    """
    if hasattr(source, "read"):
        where, handle = "<stream>", contextlib.nullcontext(source)
    else:
        where, handle = os.fsdecode(source), open(source, "r")
    values: dict[str, object] = {}
    lines: dict[str, int] = {}  # the line each key was last set on
    with handle as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{where}:{lineno}: bad config line {raw.rstrip()!r}")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            convert = int if key in _INT_KEYS else float if key in _FLOAT_KEYS else None
            if convert is None:
                raise ValueError(f"{where}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = convert(text)
            except ValueError as exc:
                raise ValueError(f"{where}:{lineno}: {key}: {exc}") from None
            lines[key] = lineno
    values.update(overrides)
    try:
        return RunConfig(**values)  # type: ignore[arg-type]
    except _SettingError as exc:
        at = [lines[key] for key in exc.keys if key in lines and key not in overrides]
        if not at:
            raise
        raise ValueError(f"{where}:{max(at)}: {exc}") from None

