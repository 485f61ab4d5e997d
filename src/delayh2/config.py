"""Problem configuration files.

A problem lives in one JSON document with a ``plant`` section and exactly
one constraint section (``graph``, ``delay_matrix`` or ``patterns``)::

    {
      "plant": {
        "a": [[...], ...], "b1": ..., "b2": ..., "c1": ..., "c2": ...,
        "d12": ..., "d21": ...,
        "block_rows": [1, 1],      # control-input block sizes
        "block_cols": [1, 1]       # measurement block sizes
      },
      "graph": {"comp_delays": [1, 1], "edges": [[0, 1, 1], [1, 0, 1]]},
      # or "delay_matrix": [[1, 2], [2, 1]],
      # or "patterns": [[[1, 0], [0, 1]], [[1, 1], [1, 1]]],   # lags 1..N
      "sweep": {"template": [[1, 0], [0, 1]]}  # only needed by sweeps
    }

``patterns: []`` is the vacuous constraint (centralized, one-step delay).
A graph or delay matrix constrains lags 1 .. max(d) - 1; every block is
free after that.  Sweep templates may also be the strings "diagonal",
"lower-triangular" or "full".  The file holds only the problem: any other
top-level key is refused, so that a setting the program does not read (the
``options`` section of older files, say) cannot go unnoticed.

:func:`load_config` resolves the whole problem as it reads the file: the
graph's delay matrix, the constraint space and every check on them.  Any
rejection is a :class:`ConfigError` naming the file and the section at
fault (``{path}.{section}``), so every subcommand refuses the same files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .delaymodel import ConstraintSpace, DelayGraph, DelayMatrix
from .delaymodel import constraint_space as build_constraint_space
from .delaymodel import delay_matrix as build_delay_matrix
from .errors import ConfigError, DelayH2Error
from .synthesis import GeneralizedPlant

_PLANT_KEYS = ("a", "b1", "b2", "c1", "c2", "d12", "d21")
_CONSTRAINT_KEYS = ("graph", "delay_matrix", "patterns")
_TOP_KEYS = ("plant",) + _CONSTRAINT_KEYS + ("sweep",)


def _matrix(section: dict, key: str, where: str) -> np.ndarray:
    if key not in section:
        raise ConfigError(f"{where}: missing field '{key}'")
    value = section[key]
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: field '{key}' is not a numeric matrix") from exc
    if arr.ndim != 2:
        raise ConfigError(f"{where}: field '{key}' must be a list of equal-length rows")
    return arr


@dataclass(frozen=True)
class ProblemConfig:
    """A problem file, resolved and validated once when it is loaded.

    ``space`` is the constraint that ``synth`` and ``verify`` use.
    ``delays`` is the delay matrix given or built from the graph; it is
    None for explicit patterns, which carry no delay information.
    ``sweep_template`` is the block pattern that ``sweep`` repeats (None
    without a ``sweep`` section).
    """

    plant: GeneralizedPlant
    delays: Optional[DelayMatrix]
    space: ConstraintSpace
    sweep_template: Optional[np.ndarray]

    def sweep_space(self, n_horizon: int) -> ConstraintSpace:
        """Constraint space repeating the sweep template at lags 1..N."""
        if self.sweep_template is None:
            raise ConfigError("config has no 'sweep' section with a 'template'")
        pats = tuple(self.sweep_template.copy() for _ in range(n_horizon))
        return ConstraintSpace(
            n_horizon, self.plant.block_rows, self.plant.block_cols, pats
        )


def load_config(path: str) -> ProblemConfig:
    """Parse and validate a problem configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(doc, where=path)


def parse_config(doc: dict, where: str = "config") -> ProblemConfig:
    """Resolve and check a problem document; errors start with ``where``."""
    unknown = [key for key in doc if key not in _TOP_KEYS]
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown section; a problem file "
                          f"holds only {', '.join(_TOP_KEYS)}")
    if "plant" not in doc or not isinstance(doc["plant"], dict):
        raise ConfigError(f"{where}: missing 'plant' section")
    psec = doc["plant"]
    fields = {key: _matrix(psec, key, f"{where}.plant") for key in _PLANT_KEYS}
    for key in ("block_rows", "block_cols"):
        if key not in psec:
            raise ConfigError(f"{where}.plant: missing field '{key}'")
        fields[key] = psec[key]
    try:
        plant = GeneralizedPlant(**fields)
    except (DelayH2Error, ValueError, TypeError) as exc:
        raise ConfigError(f"{where}.plant: {exc}") from exc

    present = [key for key in _CONSTRAINT_KEYS if key in doc]
    if len(present) != 1:
        raise ConfigError(
            f"{where}: exactly one of {_CONSTRAINT_KEYS} required, found {present or 'none'}"
        )
    delays, space = _constraint(doc[present[0]], present[0], plant, where)
    template = _parse_template(doc["sweep"], plant, where) if "sweep" in doc else None
    return ProblemConfig(plant, delays, space, template)


def _constraint(
    section, style: str, plant: GeneralizedPlant, where: str
) -> tuple[Optional[DelayMatrix], ConstraintSpace]:
    """(delays, space) of the constraint section ``style``; ``delays`` is
    None for explicit patterns."""
    grid = (len(plant.block_rows), len(plant.block_cols))
    if style == "patterns":
        if not isinstance(section, list):
            raise ConfigError(f"{where}.patterns: must be a list of 0/1 block matrices")
        pats = tuple(
            _block_pattern(p, grid, f"{where}.patterns[{idx}]") for idx, p in enumerate(section, 1)
        )
        try:
            return None, ConstraintSpace(len(pats), plant.block_rows, plant.block_cols, pats)
        except DelayH2Error as exc:
            raise ConfigError(f"{where}.patterns: {exc}") from exc
    if style == "graph" and (not isinstance(section, dict) or "comp_delays" not in section):
        raise ConfigError(f"{where}.graph: need 'comp_delays' and 'edges'")
    try:
        if style == "graph":
            comp = section["comp_delays"]
            delays = build_delay_matrix(DelayGraph(len(comp), comp, section.get("edges", ())))
        else:
            delays = DelayMatrix(section)
        if (delays.node_count,) * 2 != grid:
            raise ValueError(f"{delays.node_count} network nodes but plant declares "
                             f"{grid[0]}/{grid[1]} blocks")
        space = build_constraint_space(delays, plant.block_rows, plant.block_cols)
    except (DelayH2Error, ValueError, TypeError) as exc:
        raise ConfigError(f"{where}.{style}: {exc}") from exc
    return delays, space


def _parse_template(section, plant: GeneralizedPlant, where: str) -> np.ndarray:
    if not isinstance(section, dict) or "template" not in section:
        raise ConfigError(f"{where}.sweep: need a 'template' field")
    raw = section["template"]
    shape = (len(plant.block_rows), len(plant.block_cols))
    if isinstance(raw, str):
        name = raw.lower().replace("_", "-")
        if shape[0] != shape[1]:
            raise ConfigError(f"{where}.sweep: named templates need a square block grid")
        if name == "diagonal":
            return np.eye(shape[0], dtype=bool)
        if name == "lower-triangular":
            return np.tril(np.ones(shape, dtype=bool))
        if name == "full":
            return np.ones(shape, dtype=bool)
        raise ConfigError(f"{where}.sweep: unknown template '{raw}'")
    return _block_pattern(raw, shape, f"{where}.sweep")


def _block_pattern(raw, shape, where: str) -> np.ndarray:
    """A 0/1 block matrix of the given block-grid shape."""
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a rectangular 0/1 matrix ({exc})") from exc
    if arr.shape != shape:
        raise ConfigError(f"{where}: shape {arr.shape} does not match the block grid {shape}")
    if not np.isin(arr, (0.0, 1.0)).all():
        raise ConfigError(f"{where}: entries must be 0 or 1")
    return arr.astype(bool)
