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
      "sweep": {"template": [[1, 0], [0, 1]]},  # only needed by sweeps
      "options": {"n_horizon": 4, "tol_zero": 1e-9}   # optional
    }

``patterns: []`` is the vacuous constraint (centralized, one-step delay).
Sweep templates may also be the strings "diagonal", "lower-triangular" or
"full".  ``options.n_horizon`` overrides the FIR horizon of a graph or
delay-matrix constraint (blocks stay allowed from their delay onward, so a
longer window only appends unconstrained lags); ``options.tol_zero`` sets
the file-level threshold for plant block-delay detection, overridable by
the CLI's --tol flag.
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
    """Parsed problem description: plant plus one constraint specification."""

    plant: GeneralizedPlant
    graph: Optional[DelayGraph]
    delays: Optional[DelayMatrix]
    explicit_patterns: Optional[tuple]
    sweep_template: Optional[np.ndarray]
    n_horizon_override: Optional[int] = None
    tol_zero: Optional[float] = None

    def constraint_space(self) -> ConstraintSpace:
        """Constraint space from whichever style the config used."""
        if self.explicit_patterns is not None:
            pats = tuple(np.asarray(p, dtype=bool) for p in self.explicit_patterns)
            if self.n_horizon_override not in (None, len(pats)):
                raise ConfigError(
                    "options.n_horizon conflicts with the explicit pattern count"
                )
            return ConstraintSpace(
                len(pats), self.plant.block_rows, self.plant.block_cols, pats
            )
        return build_constraint_space(
            self.delay_matrix(),
            self.plant.block_rows,
            self.plant.block_cols,
            self.n_horizon_override,
        )

    def delay_matrix(self) -> Optional[DelayMatrix]:
        """Delay matrix when one is derivable (None for explicit patterns)."""
        if self.delays is not None:
            return self.delays
        if self.graph is not None:
            return build_delay_matrix(self.graph)
        return None

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
    if "plant" not in doc or not isinstance(doc["plant"], dict):
        raise ConfigError(f"{where}: missing 'plant' section")
    psec = doc["plant"]
    mats = {key: _matrix(psec, key, f"{where}.plant") for key in _PLANT_KEYS}
    for key in ("block_rows", "block_cols"):
        if key not in psec:
            raise ConfigError(f"{where}.plant: missing field '{key}'")
    try:
        plant = GeneralizedPlant(
            **mats,
            block_rows=tuple(int(r) for r in psec["block_rows"]),
            block_cols=tuple(int(c) for c in psec["block_cols"]),
        )
    except (DelayH2Error, ValueError, TypeError) as exc:
        raise ConfigError(f"{where}.plant: {exc}") from exc

    present = [key for key in _CONSTRAINT_KEYS if key in doc]
    if len(present) != 1:
        raise ConfigError(
            f"{where}: exactly one of {_CONSTRAINT_KEYS} required, found {present or 'none'}"
        )

    graph = delays = explicit = None
    style = present[0]
    if style == "graph":
        gsec = doc["graph"]
        if not isinstance(gsec, dict) or "comp_delays" not in gsec:
            raise ConfigError(f"{where}.graph: need 'comp_delays' and 'edges'")
        try:
            comp = [int(c) for c in gsec["comp_delays"]]
            edges = [tuple(int(x) for x in e) for e in gsec.get("edges", [])]
            if any(len(e) != 3 for e in edges):
                raise ValueError("edges must be [from, to, delay] triples")
            graph = DelayGraph(len(comp), tuple(comp), tuple(edges))
        except (DelayH2Error, ValueError, TypeError) as exc:
            raise ConfigError(f"{where}.graph: {exc}") from exc
        _check_block_count(len(comp), plant, where)
    elif style == "delay_matrix":
        try:
            delays = DelayMatrix(np.array(doc["delay_matrix"], dtype=int))
        except (DelayH2Error, ValueError, TypeError) as exc:
            raise ConfigError(f"{where}.delay_matrix: {exc}") from exc
        _check_block_count(delays.node_count, plant, where)
    else:
        raw = doc["patterns"]
        if not isinstance(raw, list):
            raise ConfigError(f"{where}.patterns: must be a list of 0/1 block matrices")
        shape = (len(plant.block_rows), len(plant.block_cols))
        explicit = tuple(
            _block_pattern(p, shape, f"{where}.patterns[{idx}]") for idx, p in enumerate(raw, 1)
        )

    template = None
    if "sweep" in doc:
        template = _parse_template(doc["sweep"], plant, where)

    n_override = None
    tol_zero = None
    if "options" in doc:
        osec = doc["options"]
        if not isinstance(osec, dict):
            raise ConfigError(f"{where}.options: must be an object")
        unknown = set(osec) - {"n_horizon", "tol_zero"}
        if unknown:
            raise ConfigError(f"{where}.options: unknown keys {sorted(unknown)}")
        try:
            if "n_horizon" in osec:
                n_override = int(osec["n_horizon"])
            if "tol_zero" in osec:
                tol_zero = float(osec["tol_zero"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.options: {exc}") from exc
        if n_override is not None and n_override < 0:
            raise ConfigError(f"{where}.options: n_horizon must be >= 0")
        if tol_zero is not None and not tol_zero > 0:
            raise ConfigError(f"{where}.options: tol_zero must be > 0")

    return ProblemConfig(plant, graph, delays, explicit, template, n_override, tol_zero)


def _check_block_count(nodes: int, plant: GeneralizedPlant, where: str) -> None:
    if nodes != len(plant.block_rows) or nodes != len(plant.block_cols):
        raise ConfigError(
            f"{where}: {nodes} network nodes but plant declares "
            f"{len(plant.block_rows)}/{len(plant.block_cols)} blocks"
        )


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
    return arr.astype(bool)
