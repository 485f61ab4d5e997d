import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delayh2 import (AssumptionViolated, QIViolation, cli, riccati_gains, statespace, synthesis,
                     synthesize, verify)
from conftest import DENSE_A, dense_orders, householder

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CHAIN = str(CONFIG_DIR / "chain_three_player.json")
CENTRALIZED = str(CONFIG_DIR / "chain_centralized.json")
SWEEP = str(CONFIG_DIR / "two_subsystem_sweep.json")
SRC_DIR = CONFIG_DIR.parent / "src"


def write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def channel_config(tmp_path: Path, a, b2, c2) -> str:
    """The three-player chain file with control channel (a, b2, c2) and a
    delay of 2 on every link."""
    doc = json.loads(Path(CHAIN).read_text())
    doc["plant"].update(a=np.asarray(a).tolist(), b2=np.asarray(b2).tolist(),
                        c2=np.asarray(c2).tolist())
    for edge in doc["graph"]["edges"]:
        edge[2] = 2
    return write_json(tmp_path / "channel.json", doc)


def non_qi_config(tmp_path: Path) -> str:
    """Two coupled subsystems, but the network is slower than the plant."""
    return write_json(
        tmp_path / "nonqi.json",
        {
            "plant": {
                "a": [[1.2, 0.5], [0.5, 1.2]],
                "b1": [[1, 0, 0, 0], [0, 1, 0, 0]],
                "b2": [[1, 0], [0, 1]],
                "c1": [[1, 0], [0, 1], [0, 0], [0, 0]],
                "c2": [[1, 0], [0, 1]],
                "d12": [[0, 0], [0, 0], [1, 0], [0, 1]],
                "d21": [[0, 0, 1, 0], [0, 0, 0, 1]],
                "block_rows": [1, 1],
                "block_cols": [1, 1],
            },
            "delay_matrix": [[1, 5], [5, 1]],
        },
    )


class TestCheckQi:
    def test_chain_passes(self, capsys):
        assert cli.main(["check-qi", "--config", CHAIN]) == 0
        out = capsys.readouterr().out
        assert "QI: PASS" in out
        assert "delay matrix" in out

    def test_slow_network_fails_with_witness(self, tmp_path, capsys):
        assert cli.main(["check-qi", "--config", non_qi_config(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "QI: FAIL" in out and "witness" in out

    def test_malformed_matrix_is_usage_error(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        doc["plant"]["a"] = [[1.0, "x", 0.0]]
        assert cli.main(["check-qi", "--config", write_json(tmp_path / "bad.json", doc)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["check-qi", "--config", str(path)]) == 1

    def test_patterns_style_cannot_be_checked(self, capsys):
        assert cli.main(["check-qi", "--config", CENTRALIZED]) == 1

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_two_constraint_styles_rejected(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        doc["patterns"] = []
        assert cli.main(["check-qi", "--config", write_json(tmp_path / "two.json", doc)]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_no_constraint_style_rejected(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        del doc["graph"]
        assert cli.main(["check-qi", "--config", write_json(tmp_path / "none.json", doc)]) == 1

    def test_badly_scaled_dense_plant_fails_with_witness(self, tmp_path, capsys):
        # B2 = C2 = 1e-5 I: an absolute zero threshold of 1e-9 read every
        # block as zero, passed QI, and synth gave a controller that breaks
        # the delay constraint
        cfg = channel_config(tmp_path, DENSE_A, 1e-5 * np.eye(3), 1e-5 * np.eye(3))
        assert cli.main(["check-qi", "--config", cfg]) == 2
        assert ("QI: FAIL  witness (k=0, i=0, j=2, l=2): d[0,0] + p[0,2] + d[2,2] = 4 "
                "< d[0,2] = 5") in capsys.readouterr().out
        assert cli.main(["synth", "--config", cfg]) == 2
        assert "not quadratically invariant" in capsys.readouterr().err

    def test_rotated_decoupled_plant_passes(self, tmp_path, capsys):
        # A = Q diag(0.5, 0.7, 0.9) Q^T, B2 = s Q, C2 = s Q^T at s = 1e5:
        # rounding noise of size s^2 eps read as coupling under an absolute
        # zero threshold
        q, s = householder([1.0, 2.0, 3.0]), 1e5
        cfg = channel_config(tmp_path, q @ np.diag([0.5, 0.7, 0.9]) @ q.T, s * q, s * q.T)
        assert cli.main(["check-qi", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "plant block delays p:\n  1  6  6\n  6  1  6\n  6  6  1\nQI: PASS" in out


def no_work(*args, **kwargs):
    """Stand-in for the synthesis entry points in tests that must fail first."""
    raise AssertionError("the work ran")


class TestSynth:
    def test_chain_prints_published_norm(self, tmp_path, capsys):
        out_file = tmp_path / "controller.json"
        assert cli.main(["synth", "--config", CHAIN, "--out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        norm = float(printed.split("H2 norm:")[1].strip())
        assert norm == pytest.approx(34.9304, abs=1e-3)

        doc = json.loads(out_file.read_text())
        assert set(doc) == {
            "controller", "v_star", "p11_norm_sq", "qp_cost", "total_norm_sq", "h2_norm"
        }
        assert len(doc["v_star"]) == 2
        assert np.array(doc["controller"]["a"]).shape == (9, 9)
        assert doc["total_norm_sq"] == pytest.approx(
            doc["p11_norm_sq"] + doc["qp_cost"], rel=1e-12
        )

    def test_centralized_prints_reference_norm(self, capsys):
        assert cli.main(["synth", "--config", CENTRALIZED]) == 0
        norm = float(capsys.readouterr().out.split("H2 norm:")[1].strip())
        assert norm == pytest.approx(24.236, abs=1e-2)

    def test_non_qi_config_refused_without_force(self, tmp_path, capsys):
        cfg = non_qi_config(tmp_path)
        assert cli.main(["synth", "--config", cfg]) == 2
        assert "quadratically invariant" in capsys.readouterr().err

    def test_refusal_is_a_qi_violation_quoting_the_check_qi_witness(self, tmp_path, capsys):
        cfg = non_qi_config(tmp_path)
        assert cli.main(["check-qi", "--config", cfg]) == 2
        witness = capsys.readouterr().out.split("QI: FAIL  ")[1].strip()
        assert witness.startswith("witness (k=")
        args = cli._build_parser().parse_args(["synth", "--config", cfg])
        with pytest.raises(QIViolation, match=re.escape(f": {witness}; re-run with --force")):
            cli.cmd_synth(args)

    @pytest.mark.parametrize("force", [False, True], ids=["guarded", "forced"])
    def test_synth_reaches_the_qi_verdict_through_synthesize(self, capsys, monkeypatch, force):
        # one QI gate: synth reaches the verdict only through
        # synthesize(delays=), which computes the block delays once
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        real = synthesis.plant_block_delays
        monkeypatch.setattr(synthesis, "plant_block_delays", spy)
        argv = ["synth", "--config", CHAIN] + (["--force"] if force else [])
        assert cli.main(argv) == 0
        assert len(calls) == (0 if force else 1)

    @pytest.mark.parametrize("command", ["check-qi", "synth"])
    @pytest.mark.parametrize("qi", [True, False], ids=["QI", "not QI"])
    def test_check_qi_and_synth_reach_one_qi_verdict(self, tmp_path, capsys, monkeypatch,
                                                     command, qi):
        # both subcommands decide QI by the same function, once, so their
        # verdicts cannot drift apart
        calls = []
        real = synthesis.qi_verdict
        monkeypatch.setattr(synthesis, "qi_verdict",
                            lambda *args: calls.append(args) or real(*args))
        cfg = CHAIN if qi else non_qi_config(tmp_path)
        assert cli.main([command, "--config", cfg]) == (0 if qi else 2)
        assert len(calls) == 1

    def test_unwritable_out_is_reported_before_the_qi_verdict(self, tmp_path, capsys):
        out = tmp_path / "missing" / "controller.json"
        assert cli.main(["synth", "--config", non_qi_config(tmp_path), "--out", str(out)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_force_overrides_qi_guard(self, tmp_path, capsys):
        cfg = non_qi_config(tmp_path)
        assert cli.main(["synth", "--config", cfg, "--force"]) == 0
        assert "H2 norm:" in capsys.readouterr().out

    @pytest.mark.parametrize("existing", [True, False], ids=["existing file", "new file"])
    def test_failed_synthesis_leaves_the_out_file_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                           existing):
        def fails(plant, cs, delays=None):
            raise AssumptionViolated("synthetic synthesis failure")

        out = tmp_path / "controller.json"
        if existing:
            assert cli.main(["synth", "--config", CHAIN, "--out", str(out)]) == 0
        before = out.read_bytes() if existing else None
        monkeypatch.setattr(cli, "synthesize", fails)
        assert cli.main(["synth", "--config", CHAIN, "--out", str(out)]) == 2
        assert "synthetic synthesis failure" in capsys.readouterr().err
        assert (out.read_bytes() if out.exists() else None) == before

    def test_unwritable_out_is_config_error_before_synthesis(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "synthesize", no_work)
        out = tmp_path / "missing" / "controller.json"
        assert cli.main(["synth", "--config", CHAIN, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"delayh2: config error: cannot write {out}: No such file or directory"
        )


class TestSweep:
    def test_csv_schema_and_monotonicity(self, tmp_path):
        out_csv = tmp_path / "norms.csv"
        assert cli.main([
            "sweep", "--config", SWEEP, "--n-min", "1", "--n-max", "4",
            "--out", str(out_csv),
        ]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "N,norm"
        assert len(lines) == 5
        norms = []
        for expected_n, line in enumerate(lines[1:], start=1):
            n_str, norm_str = line.split(",")
            assert int(n_str) == expected_n
            assert len(norm_str.replace(".", "").replace("-", "").lstrip("0")) >= 6
            norms.append(float(norm_str))
        assert all(a <= b + 1e-8 for a, b in zip(norms, norms[1:]))

    def test_single_row_range(self, tmp_path):
        out_csv = tmp_path / "one.csv"
        assert cli.main([
            "sweep", "--config", SWEEP, "--n-min", "3", "--n-max", "3",
            "--out", str(out_csv),
        ]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "N,norm" and len(lines) == 2

    def test_unwritable_out_is_config_error_before_the_sweep(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "sweep_norms", no_work)
        out = tmp_path / "missing" / "norms.csv"
        assert cli.main([
            "sweep", "--config", SWEEP, "--n-min", "1", "--n-max", "120", "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err.startswith(
            f"delayh2: config error: cannot write {out}: No such file or directory"
        )

    def test_bad_range_is_usage_error(self, tmp_path):
        assert cli.main([
            "sweep", "--config", SWEEP, "--n-min", "3", "--n-max", "1",
            "--out", str(tmp_path / "x.csv"),
        ]) == 1

    def test_template_matrix_form(self, tmp_path):
        doc = json.loads(Path(SWEEP).read_text())
        doc["sweep"]["template"] = [[0, 0], [0, 1]]
        cfg = write_json(tmp_path / "low.json", doc)
        out_csv = tmp_path / "low.csv"
        assert cli.main([
            "sweep", "--config", cfg, "--n-min", "1", "--n-max", "2",
            "--out", str(out_csv),
        ]) == 0

    def test_norms_match_separate_syntheses(self, tmp_path):
        from delayh2 import synthesize
        from delayh2.config import load_config

        out_csv = tmp_path / "norms.csv"
        assert cli.main([
            "sweep", "--config", SWEEP, "--n-min", "1", "--n-max", "12",
            "--out", str(out_csv),
        ]) == 0
        cfg = load_config(SWEEP)
        want = ["N,norm"] + [
            f"{n},{synthesize(cfg.plant, cfg.sweep_space(n)).h2_norm:.10g}"
            for n in range(1, 13)
        ]
        assert out_csv.read_text().splitlines() == want

    def test_failed_row_leaves_empty_cell_and_continues(self, tmp_path, monkeypatch, capsys):
        # one backward pass serves every N, so a singular stage at step m
        # fails each horizon from m on, and a failure in the plant's part
        # fails them all; the sweep still writes every row and exits 0.  The
        # first steps run on a factor of the cost-to-go, each factoring
        # (R^-1)_ff and then I + W^T Y (0 x 0 at step 1, whose factor has
        # rank 0), so the third Cholesky factorization is step 2's first:
        # (R^-1)_ff of the one forbidden coordinate, 1 x 1
        from delayh2.errors import AssumptionViolated

        real_cholesky = np.linalg.cholesky
        calls = []

        def singular_second_stage(h):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("synthetic singular matrix")
            return real_cholesky(h)

        monkeypatch.setattr(np.linalg, "cholesky", singular_second_stage)
        out_csv = tmp_path / "flaky.csv"
        assert cli.main([
            "sweep", "--config", SWEEP, "--n-min", "1", "--n-max", "4",
            "--out", str(out_csv),
        ]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert warnings == [
            f"warning: N={n} failed: singular stage matrix (R^-1)_ff of order 1 at backward"
            " step 2 (3 allowed coordinates): its smallest eigenvalue is 1 times its largest"
            for n in (2, 3, 4)
        ]
        lines = out_csv.read_text().strip().splitlines()
        assert lines[1].startswith("1,") and len(lines[1]) > 2
        assert lines[2:] == ["2,", "3,", "4,"]

        def no_gains(plant):
            raise AssumptionViolated("synthetic prefix failure")

        monkeypatch.setattr(np.linalg, "cholesky", real_cholesky)
        monkeypatch.setattr(synthesis, "riccati_gains", no_gains)
        assert cli.main([
            "sweep", "--config", SWEEP, "--n-min", "2", "--n-max", "4",
            "--out", str(out_csv),
        ]) == 0
        assert capsys.readouterr().err.count("failed: synthetic prefix failure") == 3
        assert out_csv.read_text().strip().splitlines()[1:] == ["2,", "3,", "4,"]

    def test_a_falling_norm_fails_its_rows(self, tmp_path, capsys):
        # the diagonal template's dense downdate drifts (ROADMAP item 11)
        # until the squared norm at N = 110 falls below N = 109's by more
        # than 1e-9 of it, which no optimum can; that horizon and every later
        # one fail with a warning, and the earlier rows are those of a
        # shorter sweep
        doc = json.loads(Path(SWEEP).read_text())
        doc["sweep"]["template"] = "diagonal"
        cfg = write_json(tmp_path / "diag.json", doc)

        def sweep(n_max):
            out_csv = tmp_path / f"diag{n_max}.csv"
            assert cli.main(["sweep", "--config", cfg, "--n-min", "1", "--n-max", str(n_max),
                             "--out", str(out_csv)]) == 0
            return out_csv.read_text().splitlines()[1:]

        rows = sweep(120)
        first = next(n for n, row in enumerate(rows, 1) if row == f"{n},")
        assert first == 110
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 120 - first + 1
        assert all(
            w.startswith(f"warning: N={n} failed: squared H2 norm ")
            and f" at horizon N = {first} is below " in w
            and f" at N = {first - 1} by " in w
            and w.endswith(", more than 1e-09 of it: the QP cost lost its accuracy")
            for n, w in zip(range(first, 121), warnings)
        )
        assert rows[first - 1:] == [f"{n}," for n in range(first, 121)]
        assert rows[:first - 1] == sweep(first - 1)

    @pytest.mark.xfail(
        strict=True,
        reason="past N = 80 the diagonal template's QP cost drifts from the cost "
        "of its own V (ROADMAP items 1 and 11); the sweep refuses N = 110 ... 120, "
        "whose norms fall by more than 1e-9, and leaves their rows blank",
    )
    def test_diagonal_template_is_monotone_to_n_120(self, tmp_path):
        doc = json.loads(Path(SWEEP).read_text())
        doc["sweep"]["template"] = "diagonal"
        out_csv = tmp_path / "diag.csv"
        assert cli.main([
            "sweep", "--config", write_json(tmp_path / "diag.json", doc),
            "--n-min", "1", "--n-max", "120", "--out", str(out_csv),
        ]) == 0
        norms = [float(line.split(",")[1]) for line in out_csv.read_text().splitlines()[1:]]
        # the bound of the benchmark's sweep gate
        assert all(b >= a * (1.0 - 1e-9) for a, b in zip(norms, norms[1:]))


@pytest.fixture(scope="module")
def perturbed_controller(tmp_path_factory) -> str:
    """A chain controller file whose V_1 entry (0,1), in a block forbidden
    at lag 1, is moved by 0.05."""
    path = tmp_path_factory.mktemp("perturbed") / "controller.json"
    cli.main(["synth", "--config", CHAIN, "--out", str(path)])
    doc = json.loads(path.read_text())
    n = cli.load_config(CHAIN).plant.n
    doc["controller"]["c"][0][n + 1] += 0.05
    return write_json(path, doc)


class TestVerify:
    def test_round_trip_reproduces_norm(self, tmp_path, capsys):
        out_file = tmp_path / "controller.json"
        cli.main(["synth", "--config", CHAIN, "--out", str(out_file)])
        synth_norm = float(capsys.readouterr().out.split("H2 norm:")[1].strip())

        assert cli.main(["verify", str(out_file), "--config", CHAIN]) == 0
        out = capsys.readouterr().out
        assert "conformance: PASS" in out
        assert "internal stability: PASS" in out
        verified = float(out.split("closed-loop H2 norm:")[1].splitlines()[0])
        assert verified == pytest.approx(synth_norm, rel=1e-6)

    def test_loop_stability_is_decided_once(self, tmp_path, capsys, monkeypatch):
        # the loop norm's stability precondition is the printed verdict
        out_file = tmp_path / "controller.json"
        cli.main(["synth", "--config", CHAIN, "--out", str(out_file)])
        controller_order = len(json.loads(out_file.read_text())["controller"]["a"])
        order = cli.load_config(CHAIN).plant.n + controller_order
        orders = []
        real = statespace._stability

        def spy(a):
            orders.append(a.shape[0])
            return real(a)

        monkeypatch.setattr(statespace, "_stability", spy)
        assert cli.main(["verify", str(out_file), "--config", CHAIN]) == 0
        assert "internal stability: PASS" in capsys.readouterr().out
        assert orders == [order]

    def test_centralized_controller_fails_chain_conformance(self, tmp_path, capsys):
        out_file = tmp_path / "central.json"
        cli.main(["synth", "--config", CENTRALIZED, "--out", str(out_file)])
        capsys.readouterr()
        assert cli.main(["verify", str(out_file), "--config", CHAIN]) == 2
        assert "conformance: FAIL" in capsys.readouterr().out

    def test_unstable_controller_fails(self, tmp_path, capsys):
        doc = {
            "controller": {
                "a": (2.0 * np.eye(3)).tolist(),
                "b": np.eye(3).tolist(),
                "c": np.eye(3).tolist(),
                "d": np.zeros((3, 3)).tolist(),
            }
        }
        path = write_json(tmp_path / "unstable.json", doc)
        assert cli.main(["verify", path, "--config", CHAIN]) == 2
        assert "internal stability: FAIL" in capsys.readouterr().out

    def test_missing_controller_file_is_usage_error(self, tmp_path):
        assert cli.main(["verify", str(tmp_path / "nope.json"), "--config", CHAIN]) == 1

    @pytest.mark.parametrize("stored", ["abc", [1], True, 10**400, math.nan, math.inf, -math.inf],
                             ids=["string", "list", "bool", "huge-int", "nan", "inf", "-inf"])
    def test_malformed_stored_norm_is_config_error(self, perturbed_controller, tmp_path,
                                                   capsys, stored):
        # the loop is stable, so the stored norm would be compared
        doc = json.loads(Path(perturbed_controller).read_text())
        doc["h2_norm"] = stored
        path = write_json(tmp_path / "bad_norm.json", doc)
        assert cli.main(["verify", path, "--config", CHAIN]) == 1
        assert capsys.readouterr().err.startswith(
            f"delayh2: config error: cannot read controller file {path}: ")

    @pytest.mark.parametrize("change, mismatch", [
        (lambda ksec: ksec.update(a=[[1.0]]), "B has 9 rows, expected 1"),
        (lambda ksec: [row.pop() for row in ksec["b"] + ksec["d"]],
         "controller has 2 inputs and 3 outputs, the plant 3 measurements and 3 controls"),
        (lambda ksec: ksec.update(b=[[[v] for v in row] for row in ksec["b"]]),
         "B must be a matrix, got shape (9, 3, 1)"),
        (lambda ksec: ksec.update(c=[[[v] for v in row] for row in ksec["c"]]),
         "C must be a matrix, got shape (3, 9, 1)"),
    ], ids=["state matrix", "plant dimensions", "nested b", "nested c"])
    def test_mismatched_matrices_are_config_error(self, perturbed_controller, tmp_path,
                                                  capsys, change, mismatch):
        doc = json.loads(Path(perturbed_controller).read_text())
        change(doc["controller"])
        path = write_json(tmp_path / "mismatched.json", doc)
        assert cli.main(["verify", path, "--config", CHAIN]) == 1
        assert capsys.readouterr().err == (
            f"delayh2: config error: cannot read controller file {path}: {mismatch}\n")

    @pytest.mark.parametrize("key, row, col, value", [
        ("a", 0, 0, math.nan), ("c", 0, -1, math.inf),
    ], ids=["nan in a", "infinity in c"])
    def test_non_finite_entries_are_config_error(self, tmp_path, capsys, key, row, col, value):
        out_file = tmp_path / "controller.json"
        assert cli.main(["synth", "--config", CHAIN, "--out", str(out_file)]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        doc["controller"][key][row][col] = value
        path = write_json(tmp_path / "non_finite.json", doc)
        assert cli.main(["verify", path, "--config", CHAIN]) == 1
        assert capsys.readouterr().err == (
            f"delayh2: config error: cannot read controller file {path}: "
            f"controller.{key} has a non-finite entry\n")

    def test_perturbed_forbidden_block_is_reported(self, perturbed_controller, capsys,
                                                   monkeypatch):
        seen = dense_orders(monkeypatch)
        assert cli.main(["verify", perturbed_controller, "--config", CHAIN]) == 2
        out = capsys.readouterr().out
        assert ("conformance: FAIL\n"
                "  lag 1 block (0,1) magnitude 0.05\n"
                "  lag 2 block (0,2) magnitude 0.0454\n"
                "internal stability: PASS\n") in out
        assert seen == []  # the file's shift register is read as one

    def test_uniform_delay_round_trip_conforms(self, tmp_path, capsys):
        # every block of lags 1 ... 3 is forbidden, so the largest Markov
        # parameter, and with it the fixed tolerance, is rounding noise
        # (1.6e-16); the lag-2 blocks of 2.8e-17 and 1.1e-16 lie below their
        # rounding bounds of 4.8e-15 to 1.9e-14
        doc = json.loads(Path(SWEEP).read_text())
        del doc["patterns"]
        doc["delay_matrix"] = [[3, 3], [3, 3]]
        config, out_file = write_json(tmp_path / "uniform.json", doc), tmp_path / "k.json"
        assert cli.main(["synth", "--config", config, "--out", str(out_file)]) == 0
        assert "H2 norm: 17.273825" in capsys.readouterr().out
        assert cli.main(["verify", str(out_file), "--config", config]) == 0
        assert "conformance: PASS" in capsys.readouterr().out


def verified_loops(monkeypatch) -> list:
    """The closed loops ``delayh2 verify`` builds from now on."""
    loops, build = [], verify.closed_loop

    def spy(plant, k):
        loops.append(build(plant, k))
        return loops[-1]

    monkeypatch.setattr(verify, "closed_loop", spy)
    return loops


class TestVerifySynthFile:
    """A synth file's realization holds K, L and V in its B and C, so verify
    takes the Youla path when the rest of the realization is the one they
    give, and the raw loop otherwise."""

    @pytest.mark.parametrize("config", [CHAIN, CENTRALIZED, SWEEP])
    def test_synth_file_takes_the_youla_path(self, config, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "controller.json"
        assert cli.main(["synth", "--config", config, "--out", str(out_file)]) == 0
        capsys.readouterr()
        loops = verified_loops(monkeypatch)
        assert cli.main(["verify", str(out_file), "--config", config]) == 0
        out = capsys.readouterr().out
        assert [loop.youla_blocks is not None for loop in loops] == [True]
        cfg = cli.load_config(config)
        library = verify.closed_loop(cfg.plant, synthesize(cfg.plant, cfg.space).controller)
        norm = math.sqrt(statespace.h2_norm_sq(library.model))
        assert f"closed-loop H2 norm: {norm:.6f}\n" in out

    @pytest.mark.parametrize("config", [CHAIN, CENTRALIZED, SWEEP])
    def test_a_moved_entry_falls_back_to_the_raw_loop(self, config, tmp_path, capsys,
                                                      monkeypatch):
        out_file = tmp_path / "controller.json"
        assert cli.main(["synth", "--config", config, "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", str(out_file), "--config", config]) == 0
        youla = capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        doc["controller"]["a"][0][0] *= 1 + 1e-12
        moved = write_json(tmp_path / "moved.json", doc)
        loops = verified_loops(monkeypatch)
        assert cli.main(["verify", moved, "--config", config]) == 0
        assert [loop.youla_blocks is None for loop in loops] == [True]
        assert capsys.readouterr().out == youla

    def test_a_file_without_factors_takes_the_youla_path(self, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "controller.json"
        assert cli.main(["synth", "--config", CHAIN, "--out", str(out_file)]) == 0
        capsys.readouterr()
        plain = write_json(tmp_path / "plain.json",
                           {"controller": json.loads(out_file.read_text())["controller"]})
        loops = verified_loops(monkeypatch)
        assert cli.main(["verify", plain, "--config", CHAIN]) == 0
        assert "internal stability: PASS" in capsys.readouterr().out
        assert [loop.youla_blocks is not None for loop in loops] == [True]

    @pytest.mark.parametrize("config", [CHAIN, CENTRALIZED, SWEEP])
    def test_a_file_with_the_old_factor_keys_verifies_alike(self, config, tmp_path, capsys,
                                                            monkeypatch):
        # files once carried K and L under these keys; they are ignored now
        out_file = tmp_path / "controller.json"
        assert cli.main(["synth", "--config", config, "--out", str(out_file)]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        assert "k_gain" not in doc and "l_gain" not in doc
        gains = riccati_gains(cli.load_config(config).plant)
        doc.update(k_gain=gains.k_gain.tolist(), l_gain=gains.l_gain.tolist())
        old = write_json(tmp_path / "old.json", doc)
        loops = verified_loops(monkeypatch)
        assert cli.main(["verify", str(out_file), "--config", config]) == 0
        new_out = capsys.readouterr().out
        assert cli.main(["verify", old, "--config", config]) == 0
        assert capsys.readouterr().out == new_out
        assert [loop.youla_blocks is not None for loop in loops] == [True, True]

    def test_a_fragile_loop_is_stable(self, tmp_path, capsys, monkeypatch):
        # the 4-node one-way chain A = 6.1 I + shift with computation delay
        # 24: the raw loop's eigenvalue solve reports radius about 1.7, the
        # Youla loop's blocks A_K and A_L radius 0.161
        n, eye = 4, np.eye(4).tolist()
        zero = np.zeros((n, n)).tolist()
        doc = {
            "plant": {
                "a": (6.1 * np.eye(n) + np.eye(n, k=1)).tolist(),
                "b1": np.hstack([eye, zero]).tolist(),
                "b2": eye,
                "c1": np.vstack([eye, zero]).tolist(),
                "c2": eye,
                "d12": np.vstack([zero, eye]).tolist(),
                "d21": np.hstack([zero, eye]).tolist(),
                "block_rows": [1] * n,
                "block_cols": [1] * n,
            },
            "graph": {
                "comp_delays": [24] * n,
                "edges": [[i, i + 1, 1] for i in range(n - 1)]
                + [[i + 1, i, 1] for i in range(n - 1)],
            },
        }
        config = write_json(tmp_path / "fragile.json", doc)
        out_file = tmp_path / "controller.json"
        assert cli.main(["synth", "--config", config, "--out", str(out_file)]) == 0
        capsys.readouterr()
        stored = json.loads(out_file.read_text())
        assert not {"k_gain", "l_gain"} & set(stored)
        loops = verified_loops(monkeypatch)
        assert cli.main(["verify", str(out_file), "--config", config]) == 0
        out = capsys.readouterr().out
        assert "internal stability: PASS\n" in out
        assert f"matches stored norm {stored['h2_norm']:.6f}: PASS\n" in out
        assert [loop.youla_blocks is not None for loop in loops] == [True]
        norm_sq = statespace.h2_norm_sq(loops[0].model)
        assert norm_sq == pytest.approx(stored["total_norm_sq"], rel=1e-9)


class TestTolerance:
    """No subcommand takes a --tol: the block-delay zero test derives its
    threshold from the plant, and conformance's is relative to the
    controller's own response scale."""

    @pytest.mark.parametrize("command", ["check-qi", "synth", "sweep", "verify"])
    def test_zero_test_takes_no_flag(self, perturbed_controller, tmp_path, capsys, command):
        argv = {
            "check-qi": ["check-qi", "--config", CHAIN],
            "synth": ["synth", "--config", CHAIN],
            "sweep": ["sweep", "--config", SWEEP, "--n-min", "1", "--n-max", "2",
                      "--out", str(tmp_path / "norms.csv")],
            "verify": ["verify", perturbed_controller, "--config", CHAIN],
        }[command]
        assert cli.main(argv + ["--tol", "1e9"]) == 1
        assert "unrecognized arguments: --tol 1e9" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        # pytest's own pythonpath setting does not reach a subprocess
        path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "delayh2.cli", "check-qi", "--config", CHAIN],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "QI: PASS" in proc.stdout


def nonmonotone_patterns(tmp_path: Path) -> str:
    """Every block allowed at lag 1, only the diagonal at lag 2."""
    doc = json.loads(Path(CENTRALIZED).read_text())
    doc["patterns"] = [np.ones((3, 3)).tolist(), np.eye(3).tolist()]
    doc["sweep"] = {"template": "diagonal"}
    return write_json(tmp_path / "nonmonotone.json", doc)


def legacy_options(tmp_path: Path) -> str:
    """The chain with the ``options`` section of older files, which asked
    for the centralized design; run as the chain it would not be that."""
    doc = json.loads(Path(CHAIN).read_text())
    doc["options"] = {"n_horizon": 0}
    return write_json(tmp_path / "options.json", doc)


def unknown_section(tmp_path: Path) -> str:
    """The chain with a section the program does not read."""
    doc = json.loads(Path(CHAIN).read_text())
    doc["solver"] = "dense"
    return write_json(tmp_path / "solver.json", doc)


def unreachable_graph(tmp_path: Path) -> str:
    """The three-player chain without node 2's outgoing link."""
    doc = json.loads(Path(CHAIN).read_text())
    doc["graph"]["edges"] = [e for e in doc["graph"]["edges"] if e[0] != 2]
    return write_json(tmp_path / "unreachable.json", doc)


COMMANDS = ("check-qi", "synth", "sweep", "verify")


class TestConfigResolvedOnLoad:
    """A file that defines no valid constraint, or holds a section the
    program does not read, is refused by every subcommand alike, as a config
    error naming its section; an exception escaping ``main`` would fail the
    test."""

    @pytest.mark.parametrize(
        "make_config, section, command",
        [
            (nonmonotone_patterns, "patterns", "synth"),
            (nonmonotone_patterns, "patterns", "sweep"),
            (nonmonotone_patterns, "patterns", "verify"),
            *[(legacy_options, "options", command) for command in COMMANDS],
            *[(unknown_section, "solver", command) for command in COMMANDS],
            (unreachable_graph, "graph", "synth"),
            (unreachable_graph, "graph", "check-qi"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_rejected_with_the_section_named(self, tmp_path, capsys, make_config, section,
                                             command):
        cfg = make_config(tmp_path)
        controller = write_json(tmp_path / "zero.json", {"controller": {
            "a": [[0.0]], "b": [[0.0] * 3], "c": [[0.0]] * 3, "d": np.zeros((3, 3)).tolist(),
        }})
        argv = {
            "check-qi": ["check-qi"],
            "synth": ["synth"],
            "sweep": ["sweep", "--n-min", "1", "--n-max", "2", "--out", str(tmp_path / "n.csv")],
            "verify": ["verify", controller],
        }[command]
        assert cli.main(argv + ["--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"delayh2: config error: {cfg}.{section}: ")
        assert "Traceback" not in err


class TestUnreadableFiles:
    """A file that is not UTF-8 text, or JSON nested past Python's recursion
    limit, is a config error naming the file in every subcommand, as the
    problem file and as the controller file of ``verify``; an exception
    escaping ``main`` would fail the test."""

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not-utf-8", "nested-too-deep"])
    @pytest.mark.parametrize("command, role", [*[(command, "config") for command in COMMANDS],
                                               ("verify", "controller")])
    def test_config_error_names_the_file(self, tmp_path, capsys, content, command, role):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        cfg, controller = (str(bad), CHAIN) if role == "config" else (CHAIN, str(bad))
        argv = {
            "check-qi": ["check-qi"],
            "synth": ["synth"],
            "sweep": ["sweep", "--n-min", "1", "--n-max", "2", "--out", str(tmp_path / "n.csv")],
            "verify": ["verify", controller],
        }[command]
        assert cli.main(argv + ["--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"delayh2: config error: cannot read {bad}: ")
        assert "Traceback" not in err


class TestMalformedFields:
    """Fields of the wrong type are config errors naming their section,
    never a traceback."""

    def run_bad(self, tmp_path, capsys, doc, where):
        cfg = write_json(tmp_path / "bad.json", doc)
        assert cli.main(["synth", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("delayh2: config error:")
        assert f"{cfg}.{where}" in err
        return err

    def test_non_integer_block_size(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        doc["plant"]["block_rows"] = ["a", 1]
        self.run_bad(tmp_path, capsys, doc, "plant")

    def test_ragged_pattern(self, tmp_path, capsys):
        doc = json.loads(Path(CENTRALIZED).read_text())
        doc["patterns"] = [[[1, 0], [1]]]
        self.run_bad(tmp_path, capsys, doc, "patterns[1]")

    def test_non_integer_comp_delay(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        doc["graph"]["comp_delays"] = ["x", 1, 1]
        self.run_bad(tmp_path, capsys, doc, "graph")

    def test_fractional_block_size(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        doc["plant"]["block_rows"] = [1.9, 1, 1]
        self.run_bad(tmp_path, capsys, doc, "plant")

    def test_fractional_comp_delay(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        doc["graph"]["comp_delays"] = [1.9, 1, 1]
        self.run_bad(tmp_path, capsys, doc, "graph")

    def test_fractional_edge_delay(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        doc["graph"]["edges"][0] = [0, 1, 1.5]
        self.run_bad(tmp_path, capsys, doc, "graph")

    def test_fractional_delay_matrix_entry(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        del doc["graph"]
        doc["delay_matrix"] = [[1, 2, 3], [2, 1, 2], [3, 2.5, 1]]
        self.run_bad(tmp_path, capsys, doc, "delay_matrix")

    def test_whole_floats_are_integers(self, tmp_path, capsys):
        doc = json.loads(Path(CHAIN).read_text())
        doc["graph"]["comp_delays"] = [1.0, 1.0, 1.0]
        assert cli.main(["synth", "--config", write_json(tmp_path / "ok.json", doc)]) == 0
        assert "34.930" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["a", "b1", "b2", "c1", "c2", "d12", "d21"])
    def test_non_finite_plant_entry(self, tmp_path, capsys, name):
        # json reads the literal NaN; in d12 or d21 it passed every check
        doc = json.loads(Path(CHAIN).read_text())
        doc["plant"][name][0][0] = math.nan
        err = self.run_bad(tmp_path, capsys, doc, "plant")
        assert err.endswith(f".plant: {name} has a non-finite entry\n")

    def test_non_binary_pattern_entry(self, tmp_path, capsys):
        doc = json.loads(Path(CENTRALIZED).read_text())
        doc["patterns"] = [[[1, 0, 0], [1, 1, 0], [1, 1, 1]], [[1, 0.5, 0], [1, 1, 1], [1, 1, 1]]]
        self.run_bad(tmp_path, capsys, doc, "patterns[2]")

    def test_non_binary_sweep_template(self, tmp_path, capsys):
        doc = json.loads(Path(CENTRALIZED).read_text())
        doc["sweep"] = {"template": [[1, 0, 0], [2, 1, 0], [1, -1, 1]]}
        self.run_bad(tmp_path, capsys, doc, "sweep")


def chain_document(style: str) -> dict:
    """The three-player chain file with its constraint as ``style``: its
    graph, its delay matrix or its patterns; with a diagonal sweep template."""
    doc = json.loads(Path(CHAIN).read_text())
    cfg = cli.load_config(CHAIN)
    if style == "delay_matrix":
        doc["delay_matrix"] = cfg.delays.d.tolist()
    elif style == "patterns":
        doc["patterns"] = [p.astype(int).tolist() for p in cfg.space.patterns]
    if style != "graph":
        del doc["graph"]
    doc["sweep"] = {"template": np.eye(3, dtype=int).tolist()}
    return doc


# (constraint style, entry, section named): one number of each field
PROBLEM_NUMBERS = [
    *[("graph", ("plant", name, 0, 0), f"plant.{name}")
      for name in ("a", "b1", "b2", "c1", "c2", "d12", "d21")],
    *[("graph", ("plant", name, 0), f"plant.{name}") for name in ("block_rows", "block_cols")],
    ("graph", ("graph", "comp_delays", 0), "graph.comp_delays"),
    ("graph", ("graph", "edges", 0, 2), "graph.edges"),
    ("delay_matrix", ("delay_matrix", 0, 0), "delay_matrix"),
    ("patterns", ("patterns", 0, 0, 0), "patterns[1]"),
    ("graph", ("sweep", "template", 0, 0), "sweep"),
]


class TestNumbersAreJsonNumbers:
    """A string, boolean, null or object where a number belongs is a config
    error naming its section, although numpy would read ``"1"`` and ``true``
    as 1.  So is an integer beyond the range of a float, on which ``float``
    raises an ``OverflowError``."""

    @pytest.mark.parametrize("value, message", [
        ("1", '"1" is not a number'),
        (True, "true is not a number"),
        (10**400, "an integer of 401 digits is beyond the range of a float"),
    ], ids=["string", "bool", "huge-int"])
    @pytest.mark.parametrize("style, entry, section", PROBLEM_NUMBERS,
                             ids=[section for *_, section in PROBLEM_NUMBERS])
    def test_problem_file(self, tmp_path, capsys, style, entry, section, value, message):
        doc = chain_document(style)
        *keys, last = entry
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        cfg = write_json(tmp_path / "bad.json", doc)
        assert cli.main(["synth", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"delayh2: config error: {cfg}.{section}: {message}\n"

    @pytest.mark.parametrize("value", ["1", True], ids=["string", "bool"])
    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    def test_controller_file(self, tmp_path, capsys, name, value):
        out_file = tmp_path / "controller.json"
        assert cli.main(["synth", "--config", CHAIN, "--out", str(out_file)]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        doc["controller"][name][0][0] = value
        path = write_json(tmp_path / "bad.json", doc)
        assert cli.main(["verify", path, "--config", CHAIN]) == 1
        assert capsys.readouterr().err == (
            f"delayh2: config error: cannot read controller file {path}: "
            f"controller.{name}: {json.dumps(value)} is not a number\n")
