"""Command-line frontend.

Subcommands::

    delayh2 check-qi --config problem.json
    delayh2 synth    --config problem.json --out controller.json [--force]
    delayh2 sweep    --config problem.json --n-min 1 --n-max 8 --out norms.csv
    delayh2 verify   controller.json --config problem.json

``check-qi`` prints the verdict of ``synthesis.qi_verdict``.  ``synth``
checks that ``--out`` can be written, then refuses a delay pattern that is
not quadratically invariant through ``synthesize(..., delays=d)``, which
reaches the same function; ``--force`` skips it.

Exit codes: 0 success, 1 usage or parse error, 2 domain-check failure
(QI violation, conformance or stability failure).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import delaymodel, synthesis, verify
from .config import json_numbers, load_config, read_json
from .errors import ConfigError, DelayH2Error, DimensionMismatch, QIViolation, UnstableSystem
from .statespace import StateSpaceModel, h2_norm_sq
from .synthesis import SynthesisResult, sweep_norms, synthesize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # domain-check failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="delayh2", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    qi = sub.add_parser("check-qi", help="test quadratic invariance of the delay pattern")
    qi.add_argument("--config", required=True, help="problem JSON file")

    synth = sub.add_parser("synth", help="synthesize the optimal controller")
    synth.add_argument("--config", required=True)
    synth.add_argument("--out", help="write the controller and costs to this JSON file")
    synth.add_argument("--force", action="store_true",
                       help="skip the quadratic-invariance pre-check")

    sweep = sub.add_parser("sweep", help="optimal norms over a range of horizons N")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--n-min", type=int, required=True)
    sweep.add_argument("--n-max", type=int, required=True)
    sweep.add_argument("--out", required=True, help="CSV output path")

    ver = sub.add_parser("verify", help="re-check a synthesized controller")
    ver.add_argument("controller", help="controller JSON file written by synth")
    ver.add_argument("--config", required=True)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"delayh2: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler = {
        "check-qi": cmd_check_qi,
        "synth": cmd_synth,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"delayh2: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DelayH2Error as exc:
        print(f"delayh2: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def _format_matrix(m: np.ndarray) -> str:
    return "\n".join("  " + "  ".join(f"{v:g}" for v in row) for row in np.atleast_2d(m))


def cmd_check_qi(args) -> int:
    cfg = load_config(args.config)
    d = cfg.delays
    if d is None:
        raise ConfigError(
            f"{args.config}.patterns: check-qi needs a 'graph' or 'delay_matrix' constraint; "
            "explicit patterns carry no delay information"
        )
    p, verdict = synthesis.qi_verdict(cfg.plant, d)
    print("delay matrix d:")
    print(_format_matrix(d.d))
    print("plant block delays p:")
    print(_format_matrix(p))
    if verdict.ok:
        print("QI: PASS")
        return EXIT_OK
    print(f"QI: FAIL  {delaymodel.qi_witness_text(d, p, verdict)}")
    return EXIT_DOMAIN


def _result_document(result: SynthesisResult) -> dict:
    k = result.controller
    return {
        "controller": {
            "a": k.a.tolist(),
            "b": k.b.tolist(),
            "c": k.c.tolist(),
            "d": k.d.tolist(),
        },
        "v_star": result.v_star.tolist(),
        "p11_norm_sq": result.p11_norm_sq,
        "qp_cost": result.qp_cost,
        "total_norm_sq": result.total_norm_sq,
        "h2_norm": result.h2_norm,
    }


def _check_writable(path: str) -> None:
    """Fail with a :class:`ConfigError` if ``path`` cannot be written, before
    the work whose result goes there, not with a traceback after it.  The
    check opens ``path`` without truncating it and removes it again if it
    made it, so a run that fails leaves the file as it was."""
    existed = os.path.lexists(path)
    _write(path, "", "a")
    if not existed:
        os.remove(path)


def _write(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    if cfg.delays is None and not args.force:
        print("note: constraint given as explicit patterns; QI not checkable, proceeding",
              file=sys.stderr)
    if args.out:
        _check_writable(args.out)
    try:
        result = synthesize(cfg.plant, cfg.space, delays=None if args.force else cfg.delays)
    except QIViolation as exc:
        raise QIViolation(f"{exc}; re-run with --force to synthesize anyway") from exc
    if args.out:
        _write(args.out, json.dumps(_result_document(result), indent=1) + "\n")
    print(f"H2 norm: {result.h2_norm:.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ConfigError("need 1 <= n-min <= n-max")
    if cfg.sweep_template is None:
        raise ConfigError(f"{args.config}: no 'sweep' section with a 'template'")
    _check_writable(args.out)
    cells = []
    try:
        for norm in sweep_norms(cfg.plant, cfg.sweep_template, args.n_max):
            cells.append(f"{norm:.10g}")
    except DelayH2Error as exc:  # a failure at N fails every larger N too
        for n in range(max(len(cells) + 1, args.n_min), args.n_max + 1):
            print(f"warning: N={n} failed: {exc}", file=sys.stderr)
        cells += [""] * (args.n_max - len(cells))
    rows = "".join(f"{n},{cells[n - 1]}\n" for n in range(args.n_min, args.n_max + 1))
    _write(args.out, "N,norm\n" + rows)
    print(f"wrote {args.n_max - args.n_min + 1} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    doc = read_json(args.controller)
    try:
        mats = {name: np.array(json_numbers(doc["controller"][name], f"controller.{name}"),
                               dtype=float) for name in "abcd"}
        for name, m in mats.items():
            if not np.isfinite(m).all():
                raise ValueError(f"controller.{name} has a non-finite entry")
        k = StateSpaceModel(**mats)
        stored = doc.get("h2_norm")
        if stored is not None:
            if isinstance(stored, bool) or not isinstance(stored, (int, float)):
                raise TypeError(f"h2_norm must be a number, got {stored!r}")
            stored = float(stored)
            if not math.isfinite(stored):
                raise ValueError(f"h2_norm must be finite, got {stored}")
        loop = verify.closed_loop(cfg.plant, k)
    except (ConfigError, DimensionMismatch, OverflowError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read controller file {args.controller}: {exc}") from exc

    report = verify.conformance(k, cfg.space)
    # h2_norm_sq proves the loop stable before it sums the Gramian; on the
    # loop of a synthesized realization that is the Youla verdict
    try:
        norm, stable = math.sqrt(h2_norm_sq(loop.model)), True
    except UnstableSystem:
        norm, stable = float("nan"), False

    print(f"conformance: {'PASS' if report.ok else 'FAIL'}")
    for lag, i, j, mag in report.violations[:10]:
        print(f"  lag {lag} block ({i},{j}) magnitude {mag:.3g}")
    print(f"internal stability: {'PASS' if stable else 'FAIL'}")
    print(f"closed-loop H2 norm: {norm:.6f}")

    ok = report.ok and stable
    if stored is not None and stable:
        rel = abs(norm - stored) / max(abs(stored), 1e-12)
        match = rel <= 1e-6
        print(f"matches stored norm {stored:.6f}: {'PASS' if match else 'FAIL'}")
        ok = ok and match
    return EXIT_OK if ok else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
