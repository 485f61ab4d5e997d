#!/usr/bin/env python3
"""Benchmark of delayh2's synthesis and verify paths.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload chain-large --seed 1 --seconds 20 --trace 0

One process runs one workload with one closed-loop caller: each pass starts
when the previous one has ended.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` alternates untraced passes with
traced ones and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the provenance, every
metric with its sample count, and the failures by class.  See README.md in
this directory for the workloads and metrics.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# BLAS is pinned to one thread before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("chain-large", "chain-verify", "delay-sweep")
# Fresh processes that repeat the set-up, one after each timed pass and at
# least this many; setup_s is the median over them and the measuring process.
SETUP_PROBES = 8
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {"synth_s": "s", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Module attribute -> span name, wrapped for the length of each traced pass.
WRAPPED = (
    ("synthesis", "check_qi", "delaymodel.check_qi"),
    ("synthesis", "plant_block_delays", "delaymodel.plant_block_delays"),
    ("synthesis", "riccati_gains", "synthesis.riccati_gains"),
    ("synthesis", "dare_solve", "statespace.dare_solve"),
    ("synthesis", "coprime_factorization", "synthesis.coprime_factorization"),
    ("synthesis", "model_matching_matrices", "synthesis.model_matching_matrices"),
    ("synthesis", "h2_norm_sq", "synthesis.p11_norm"),
    ("synthesis", "vectorized_system", "synthesis.vectorized_system"),
    ("synthesis", "solve_constrained_qp", "synthesis.solve_constrained_qp"),
    ("synthesis", "realize_controller", "synthesis.realize_controller"),
    ("cli", "synthesize", "synthesis.synthesize"),
    ("cli", "load_config", "config.load_config"),
)
SELF_TIME_SPANS = (
    "delaymodel.delay_matrix",
    "delaymodel.constraint_space",
    "delaymodel.check_qi",
    "delaymodel.plant_block_delays",
    "synthesis.generalized_plant",
    "statespace.dare_solve",
    "synthesis.synthesize",
    "synthesis.riccati_gains",
    "synthesis.coprime_factorization",
    "synthesis.model_matching_matrices",
    "synthesis.p11_norm",
    "synthesis.vectorized_system",
    "synthesis.solve_constrained_qp",
    "synthesis.realize_controller",
    "verify.closed_loop",
    "verify.stability",
    "verify.conformance",
    "verify.loop_norm",
    "config.load_config",
    "cli.sweep",
)
CALL_SPANS = ("statespace.dare_solve", "synthesis.synthesize")
PEAK_SPANS = ("synthesis.p11_norm", "synthesis.solve_constrained_qp", "verify.loop_norm")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SELF_TIME_SPANS:
        units[f"{name}.self_s"] = "s"
        if name in CALL_SPANS:
            units[f"{name}.calls"] = "count"
        if name in PEAK_SPANS:
            units[f"{name}.peak_mb"] = "MB"
    units["statespace.dare_solve.residual_max"] = "rel"
    units["verify.norm_gap_max"] = "rel"
    units.update({
        "trace.synth_s": "s",
        "trace.verify_s": "s",
        "trace.traced_synth_s": "s",
        "trace.traced_verify_s": "s",
        "trace.untraced_pass_s": "s",
        "trace.traced_pass_s": "s",
        "trace.overhead_s": "s",
        "trace.absent_spans": "count",
        "fail_ratio": "ratio",
    })
    return units


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time (used by the run itself)")
    return parser.parse_args(argv)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Run:
    """Passes of one workload and the failures they found."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = Counter()
        self.timed_passes = 0

    def record(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failures.update(failures)

    def pass_(self, tracer, thorough: bool = False, repeat: bool = True):
        res = self.workload.run_pass(tracer, thorough, repeat)
        self.record(res.attempted, res.failures)
        return res

    def gate_before_timing(self, null) -> None:
        """Untimed: the reference norms, the workload's own preparation and
        the warm-up pass, which also runs the expensive oracle checks."""
        import workloads

        self.record(2, workloads.reference_failures())
        self.record(0, self.workload.prepare())
        self.pass_(null, thorough=True, repeat=False)

    def end_to_end(self, null, seconds: float, probe) -> dict:
        """Timed passes.  The set-up probes run between passes, so that they
        sample the machine over the whole run like the passes do."""
        samples = {"synth_s": [], "verify_s": [], "setup_s": []}
        for _ in _passes(seconds):
            self.timed_passes += 1
            res = self.pass_(null)
            samples["synth_s"] += res.synth_samples
            samples["verify_s"] += res.verify_samples
            samples["setup_s"].append(probe())
        while len(samples["setup_s"]) < SETUP_PROBES:
            samples["setup_s"].append(probe())
        return samples

    def _traced_pass(self, tracer, index: int, memory: bool):
        """One pass with every WRAPPED attribute traced.  With ``memory``,
        tracemalloc runs too; it slows allocation-heavy code several times
        over, so self times come only from passes without it."""
        from delayh2 import cli, synthesis

        modules = {"synthesis": synthesis, "cli": cli}
        tracer.pass_index = index
        for module, attr, name in WRAPPED:
            tracer.wrap(modules[module], attr, name, keep_io=name == "statespace.dare_solve")
        if memory:
            tracemalloc.start()
        try:
            self.workload.setup(tracer)
            return self.pass_(tracer, repeat=False)
        finally:
            if memory:
                tracemalloc.stop()
            tracer.unwrap_all()

    def per_layer(self, null, tracer, seconds: float) -> dict:
        samples: dict[str, list] = {name: [] for name in per_layer_units()}
        for index in _passes(seconds):
            self.timed_passes += 1
            plain = self.pass_(null, repeat=False)
            traced = self._traced_pass(tracer, index, memory=False)
            totals = tracer.layer_totals(index)
            for name in SELF_TIME_SPANS:
                entry = totals.get(name)
                samples[f"{name}.self_s"].append(entry.self_s if entry else 0.0)
                if name in CALL_SPANS:
                    samples[f"{name}.calls"].append(entry.calls if entry else 0)
            residual = _dare_residual_max(tracer.io.pop("statespace.dare_solve", []))
            if residual is None:
                tracer.absent.append("statespace.dare_solve.residual_max")
            samples["statespace.dare_solve.residual_max"].append(residual or 0.0)
            samples["verify.norm_gap_max"].append(max(traced.norm_gaps, default=0.0))
            for prefix, res in (("trace.", plain), ("trace.traced_", traced)):
                samples[prefix + "synth_s"] += res.synth_samples
                samples[prefix + "verify_s"] += res.verify_samples
            samples["trace.untraced_pass_s"].append(sum(plain.synth_samples + plain.verify_samples))
            samples["trace.traced_pass_s"].append(sum(traced.synth_samples + traced.verify_samples))
        # Allocation peaks repeat from pass to pass, so one pass gives them.
        self._traced_pass(tracer, self.timed_passes, memory=True)
        tracer.io.clear()
        totals = tracer.layer_totals(self.timed_passes)
        for name in PEAK_SPANS:
            entry = totals.get(name)
            samples[f"{name}.peak_mb"].append(entry.peak_bytes / 2**20 if entry else 0.0)
        samples["trace.overhead_s"] = [
            _median(samples["trace.traced_pass_s"]) - _median(samples["trace.untraced_pass_s"])
        ]
        samples["trace.absent_spans"] = [len(set(tracer.absent))]
        return samples


def _passes(seconds: float):
    """Pass indices for a measurement of about ``seconds``: at least
    MIN_PASSES, and no new pass once less than half a pass's time is left."""
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= MIN_PASSES and elapsed + 0.5 * elapsed / index >= seconds:
            return
        yield index
        index += 1


def _dare_residual_max(calls):
    """Largest relative residual of the control Riccati equation over the
    recorded ``dare_solve(a, b, q) -> X`` calls, computed after the pass.
    None when a recorded call does not have that form."""
    import numpy as np

    worst = 0.0
    for args, _, x in calls:
        try:
            a, b, q = (np.atleast_2d(np.asarray(m, dtype=float)) for m in args[:3])
            bxa = b.T @ x @ a
            gain = np.linalg.solve(np.eye(b.shape[1]) + b.T @ x @ b, bxa)
            r = q + a.T @ x @ a - bxa.T @ gain - x
        except (ValueError, TypeError, np.linalg.LinAlgError):
            return None
        worst = max(worst, float(np.linalg.norm(r) / (1.0 + np.linalg.norm(x))))
    return worst


def _setup_probe(args) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True).stdout
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "delayh2").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, workload, passes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "passes": passes,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "sizes": workload.describe(),
    }


def _summary_lines(samples: dict, units: dict) -> list[str]:
    lines = []
    for name, unit in units.items():
        values = samples[name]
        lines.append(
            f"{name:45s} median {_median(values):.6g} {unit}  "
            f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})"
        )
    return lines


def result_object(run: Run, samples: dict, units: dict) -> dict:
    failed = sum(run.failures.values())
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _median(samples[name]), "unit": unit} for name, unit in units.items()
        },
    }


def measure(workload, trace: bool, seconds: float, setup_s: float, probe):
    """Gate and time one set-up workload.

    Returns the run, the samples of every metric, their units and the
    tracer (None with tracing off).  ``probe()`` sets the workload up again
    in a fresh process and returns that process's set-up time.
    """
    import spans

    null = spans.Tracer(enabled=False)
    run = Run(workload)
    run.gate_before_timing(null)
    if trace:
        tracer = spans.Tracer()
        samples = run.per_layer(null, tracer, seconds)
        samples["fail_ratio"] = [sum(run.failures.values()) / run.attempted]
        return run, samples, per_layer_units(), tracer
    samples = run.end_to_end(null, seconds, probe)
    samples["setup_s"].append(setup_s)
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return run, samples, dict(END_TO_END), None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "delayh2" / "__init__.py").is_file():
        print(f"run.py: no delayh2 package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)

    import spans
    import workloads

    workload = workloads.make(args.workload, args.seed, WORK_DIR)
    try:
        workload.setup(spans.Tracer(enabled=False))
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run, samples, units, tracer = measure(
            workload, bool(args.trace), args.seconds, setup_s, lambda: _setup_probe(args)
        )
    finally:
        workload.close()

    if tracer is not None:
        tracer.dump(WORK_DIR / f"spans-{args.workload}-{args.seed}.json")
        for name in sorted(set(tracer.absent)):
            print(f"absent span: {name} (attribute does not exist; not traced)")
    print("provenance " + json.dumps(provenance(args, workload, run.timed_passes)))
    for line in _summary_lines(samples, units):
        print(line)
    print("failures by class " + json.dumps(dict(sorted(run.failures.items()))))
    print(json.dumps(result_object(run, samples, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
