"""Which horizons ``sweep_norms`` delivers on the two-subsystem sweep plant.

For ``configs/two_subsystem_sweep.json`` with A, B2 and C2 scaled by 0.9,
0.95, 1.0, 1.05 and 1.1 (as the benchmark's delay-sweep scales them), and
the lower-triangular, diagonal, [[0, 0], [0, 1]] and full templates, it
prints per pair the number of horizons delivered out of ``N_MAX``, the
first refused N, the check that refused it (fall: the squared norm fell
below the previous horizon's; floor: below ||P11||^2 or NaN; stage: a
singular stage matrix) and the largest relative fall of the squared norm
between consecutive delivered horizons.  It asserts nothing; ROADMAP items
1(c) and 11 should push the refusals out.  Run from the repository root:

    PYTHONPATH=src python3 tests/sweep_table.py
"""

import json
from pathlib import Path

from delayh2 import DelayH2Error
from delayh2.config import parse_config
from delayh2.synthesis import sweep_norms

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "two_subsystem_sweep.json"
SCALES = (0.9, 0.95, 1.0, 1.05, 1.1)
TEMPLATES = ("lower-triangular", "diagonal", [[0, 0], [0, 1]], "full")
N_MAX = 120


def refusal(exc: DelayH2Error) -> str:
    """The check named by a refusal's message."""
    message = str(exc)
    if "centralized floor" in message:
        return "floor"
    if message.startswith("squared H2 norm"):
        return "fall"
    if message.startswith("singular stage"):
        return "stage"
    return type(exc).__name__


def row(scale: float, template) -> str:
    doc = json.loads(CONFIG.read_text())
    for key in ("a", "b2", "c2"):
        doc["plant"][key] = [[scale * v for v in line] for line in doc["plant"][key]]
    doc["sweep"]["template"] = template
    cfg = parse_config(doc, str(CONFIG))
    squares, refused = [], "-"
    try:
        for norm in sweep_norms(cfg.plant, cfg.sweep_template, N_MAX):
            squares.append(norm * norm)
    except DelayH2Error as exc:
        refused = f"N = {len(squares) + 1} ({refusal(exc)})"
    fall = max([0.0] + [(a - b) / a for a, b in zip(squares, squares[1:])])
    return (f"{scale:5.2f}  {json.dumps(template):18s} {len(squares):3d}/{N_MAX}"
            f"  {refused:17s} {fall:.2g}")


def main() -> None:
    print(f"scale  {'template':18s} delivered  first refused     largest fall")
    for scale in SCALES:
        for template in TEMPLATES:
            print(row(scale, template))


if __name__ == "__main__":
    main()
