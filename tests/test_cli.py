"""End-to-end command-line behavior: flags, files, exit codes, determinism."""
from __future__ import annotations

import cmath
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from msmlab.cli import (
    EXIT_NON_CONVERGENCE,
    EXIT_OK,
    EXIT_TRUNCATED,
    EXIT_USAGE,
    _apply_threads,
    main,
)


def read_csv_text(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_to_stdout(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestPredict:
    def test_single_row_hub_eigenvalue(self, capsys):
        rc, out = run_to_stdout(
            capsys, ["predict", "--alpha", "0.5", "--n", "10000", "--k-max", "1"]
        )
        assert rc == EXIT_OK
        header, rows = list(csv.reader(io.StringIO(out)))
        assert header == ["k", "omega_k", "omega_k_approx", "lambda_k", "method", "residual"]
        assert rows[0] == "1"
        assert float(rows[1]) == 0.0
        assert math.isnan(float(rows[2]))
        assert abs(float(rows[3]) - 245.0833404930) < 1e-6
        assert rows[4] == "exact_root"

    def test_eight_rows_alternate_in_sign(self, capsys):
        rc, out = run_to_stdout(capsys, ["predict", "--n", "10000", "--k-max", "8"])
        assert rc == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 8
        lambdas = [float(r[3]) for r in rows]
        for k, lam in enumerate(lambdas, start=1):
            assert math.copysign(1.0, lam) == (1.0 if k % 2 == 1 else -1.0)
        omegas = [float(r[1]) for r in rows]
        assert omegas == sorted(omegas)

    def test_json_format_document(self, capsys):
        rc, out = run_to_stdout(
            capsys, ["predict", "--n", "1000", "--k-max", "2", "--format", "json"]
        )
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["config"]["n"] == 1000
        assert doc["config"]["k_max"] == 2
        assert doc["truncated"] is False
        assert len(doc["predictions"]) == 2
        assert doc["predictions"][0]["omega_k_approx"] is None  # k = 1 has no approx
        assert doc["predictions"][1]["omega_k_approx"] is not None

    def test_natural_truncation_exit_code(self, capsys):
        rc, out = run_to_stdout(
            capsys, ["predict", "--n", "16", "--k-max", "20", "--format", "json"]
        )
        assert rc == EXIT_TRUNCATED
        doc = json.loads(out)
        assert doc["truncated"] is True
        assert 0 < len(doc["predictions"]) < 20

    def test_k_max_zero_is_usage_error(self, capsys):
        rc = main(["predict", "--k-max", "0"])
        capsys.readouterr()
        assert rc == EXIT_USAGE

    def test_alpha_out_of_range_is_usage_error(self, capsys):
        assert main(["predict", "--alpha", "1.0"]) == EXIT_USAGE
        assert main(["predict", "--alpha", "0"]) == EXIT_USAGE
        capsys.readouterr()

    def test_file_output_deterministic(self, tmp_path):
        argv = ["predict", "--n", "500", "--k-max", "4", "--out"]
        assert main(argv + [str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + [str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_dotted_out_prefix_is_kept_whole(self, tmp_path):
        # the suffix is appended, so runs at alpha 0.5 and 0.2 write two files
        for alpha in ("0.5", "0.2"):
            argv = ["predict", "--alpha", alpha, "--n", "500", "--k-max", "2"]
            assert main(argv + ["--out", str(tmp_path / f"pred_a{alpha}")]) == EXIT_OK
            assert main(argv + ["--format", "json", "--out", str(tmp_path / f"pred_a{alpha}")]) == EXIT_OK
        assert main(["predict", "--n", "500", "--k-max", "2", "--out", str(tmp_path / "x.csv")]) == EXIT_OK
        names = ["pred_a0.2.csv", "pred_a0.2.json", "pred_a0.5.csv", "pred_a0.5.json", "x.csv.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names


@pytest.fixture
def lanczos_fails(monkeypatch):
    """Make every Lanczos solve (the spectral norm of H) fail to converge."""
    import scipy.sparse.linalg

    def eigsh(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "No convergence (1 iterations, 0/1 eigenvectors converged)", [], []
        )

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)


def assert_one_line_error(err):
    assert err.startswith("msmlab: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def compare_outdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cmp")
    rc = main(
        [
            "compare",
            "--alpha",
            "0.5",
            "--n",
            "128",
            "--k-max",
            "4",
            "--seed",
            "1",
            "--bins",
            "16",
            "--out",
            str(d / "run"),
        ]
    )
    assert rc == EXIT_OK
    return d


@pytest.fixture(scope="module")
def spiral_outdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sp")
    rc = main(
        [
            "spiral",
            "--alpha",
            "0.5",
            "--n",
            "10000",
            "--omega-max",
            "1.0",
            "--steps",
            "800",
            "--out",
            str(d / "run"),
        ]
    )
    assert rc == EXIT_OK
    return d


class TestCompare:
    def test_all_four_files_exist(self, compare_outdir):
        for suffix in ("_report.csv", "_report.json", "_eigenvectors.csv", "_hist.csv"):
            assert (compare_outdir / f"run{suffix}").exists()

    def test_report_rows_and_columns(self, compare_outdir):
        header, rows = read_csv_text(compare_outdir / "run_report.csv")
        assert header == [
            "k",
            "lambda_pred",
            "lambda_P",
            "lambda_A",
            "rel_err_pred_vs_P",
            "rel_err_P_vs_A",
            "cosine_sim_pred_vs_P",
            "cosine_sim_P_vs_A",
            "sign_ok",
        ]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        assert all(r[8] in ("true", "false") for r in rows)

    def test_report_json_scalars(self, compare_outdir):
        doc = json.loads((compare_outdir / "run_report.json").read_text())
        assert doc["config"]["n"] == 128
        assert doc["config"]["seed"] == 1
        assert doc["bulk_edge_measured"] > 0.0
        assert doc["pred_truncated_at"] is None
        assert len(doc["rows"]) == 4

    def test_eigenvector_table_l1_normalized(self, compare_outdir):
        header, rows = read_csv_text(compare_outdir / "run_eigenvectors.csv")
        assert header == ["k", "j", "predicted", "numerical_P", "numerical_A"]
        assert len(rows) == 4 * 128
        for col in (2, 3, 4):
            total = sum(abs(float(r[col])) for r in rows if r[0] == "1")
            assert abs(total - 1.0) < 1e-12
        # numerical columns are sign-aligned to the prediction
        k1 = [r for r in rows if r[0] == "1"]
        dot = sum(float(r[2]) * float(r[3]) for r in k1)
        assert dot > 0.0

    def test_histogram_accounts_for_every_eigenvalue(self, compare_outdir):
        header, rows = read_csv_text(compare_outdir / "run_hist.csv")
        assert header == ["bin_left", "bin_right", "count", "source_kind"]
        by_kind = {}
        for r in rows:
            by_kind.setdefault(r[3], 0)
            by_kind[r[3]] += int(r[2])
        assert by_kind == {"expected_P": 128, "adjacency_A": 128}
        assert len(rows) == 2 * 16

    def test_rerun_is_byte_identical(self, compare_outdir, tmp_path):
        rc = main(
            [
                "compare",
                "--alpha",
                "0.5",
                "--n",
                "128",
                "--k-max",
                "4",
                "--seed",
                "1",
                "--bins",
                "16",
                "--out",
                str(tmp_path / "again"),
            ]
        )
        assert rc == EXIT_OK
        for suffix in ("_report.csv", "_eigenvectors.csv", "_hist.csv"):
            assert (tmp_path / f"again{suffix}").read_bytes() == (
                compare_outdir / f"run{suffix}"
            ).read_bytes()
        # the JSON embeds the resolved --out path; identical otherwise
        a = json.loads((tmp_path / "again_report.json").read_text())
        b = json.loads((compare_outdir / "run_report.json").read_text())
        a["config"].pop("out")
        b["config"].pop("out")
        assert a == b

    def test_iid_weights_accepted(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--n",
                "64",
                "--k-max",
                "2",
                "--no-deterministic",
                "--out",
                str(tmp_path / "iid"),
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "iid_report.json").read_text())
        assert doc["config"]["deterministic"] is False

    def test_out_required(self, capsys):
        rc = main(["compare", "--n", "64"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert "--out" in err

    def test_scale_guard(self, capsys, tmp_path):
        rc = main(["compare", "--n", "8192", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert "--paper-scale" in err

    def test_truncation_exit_code(self, tmp_path, capsys):
        rc = main(
            ["compare", "--n", "16", "--k-max", "16", "--out", str(tmp_path / "t")]
        )
        capsys.readouterr()
        assert rc == EXIT_TRUNCATED
        doc = json.loads((tmp_path / "t_report.json").read_text())
        assert doc["pred_truncated_at"] is not None
        # partial output still written in full
        assert len(doc["rows"]) == 16

    def test_lanczos_non_convergence_exit_code(self, tmp_path, capsys, lanczos_fails):
        rc = main(["compare", "--n", "64", "--k-max", "2", "--out", str(tmp_path / "c")])
        assert rc == EXIT_NON_CONVERGENCE
        assert_one_line_error(capsys.readouterr().err)


class TestSpiral:
    def test_locus_starts_on_positive_real_axis(self, spiral_outdir):
        header, rows = read_csv_text(spiral_outdir / "run_spiral.csv")
        assert header == ["omega", "re", "im", "branch"]
        first_plus = next(r for r in rows if r[3] == "plus")
        assert float(first_plus[0]) == 0.0
        assert float(first_plus[1]) > 0.0
        assert abs(float(first_plus[2])) < 1e-12

    @pytest.mark.parametrize("alpha", ["0.2", "0.5", "0.8"])
    def test_minus_rows_conjugate_plus_rows(self, tmp_path, alpha):
        # the benchmark's spiral shape; the minus rows are the plus rows
        # with im negated, as text, and sigma_minus(omega) =
        # -alpha Gamma(-alpha/2 + i omega) n^(1/2 - i omega/alpha)
        from msmlab.output import fmt_float
        from msmlab.special import log_gamma_complex

        argv = ["spiral", "--alpha", alpha, "--n", "10000", "--omega-max", "3", "--steps", "20000"]
        assert main(argv + ["--out", str(tmp_path / "s")]) == EXIT_OK
        _, rows = read_csv_text(tmp_path / "s_spiral.csv")
        plus = [r for r in rows if r[3] == "plus"]
        minus = [r for r in rows if r[3] == "minus"]
        assert len(plus) == len(minus) == 20_000
        assert minus == [[w, re, fmt_float(-float(im)), "minus"] for w, re, im, _ in plus]
        a = float(alpha)
        for w, re, im, _ in minus[::1000]:
            lg = log_gamma_complex(complex(-a / 2.0, float(w)))
            want = -a * cmath.exp(lg + (0.5 - 1j * float(w) / a) * math.log(10_000))
            assert abs(complex(float(re), float(im)) - want) <= 1e-12 * abs(want)

    def test_overflow_is_usage_error(self, tmp_path, capsys):
        # log Gamma overflows at Im z = 5e307; at 1e200 it does not, and
        # the refusal is sigma's underflow instead
        argv = ["spiral", "--omega-max", "1e308", "--steps", "3", "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "log Gamma overflows at z = (-0.25+5e+307j)" in err
        assert not list(tmp_path.iterdir())
        argv[2] = "1e200"
        assert main(argv) == EXIT_USAGE
        assert "sigma underflows to 0 at omega = 5e+199" in capsys.readouterr().err

    def test_underflowed_locus_is_usage_error(self, tmp_path, capsys):
        # |sigma| underflows past omega = 474.49 at alpha = 0.5, n = 10^4
        argv = ["spiral", "--omega-max", "1000", "--steps", "3000", "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "sigma underflows to 0 at omega = 474.491" in err
        assert not list(tmp_path.iterdir())

    def test_crossings_match_predict(self, spiral_outdir, capsys):
        _, cross = read_csv_text(spiral_outdir / "run_spiral_crossings.csv")
        assert [r[0] for r in cross][:3] == ["2", "3", "4"]
        rc, out = run_to_stdout(
            capsys, ["predict", "--alpha", "0.5", "--n", "10000", "--k-max", "6"]
        )
        assert rc == EXIT_OK
        pred = {r[0]: (float(r[1]), float(r[3])) for r in list(csv.reader(io.StringIO(out)))[1:]}
        for r in cross:
            if r[0] in pred:
                omega_root, lambda_root = pred[r[0]]
                assert abs(float(r[1]) - omega_root) < 1e-6
                assert abs(float(r[2]) - lambda_root) / abs(lambda_root) < 1e-6

    def test_out_required(self, capsys):
        rc = main(["spiral", "--n", "100"])
        capsys.readouterr()
        assert rc == EXIT_USAGE


class TestBulk:
    def test_sweep_grid_and_crude_bound(self, tmp_path):
        rc = main(
            [
                "bulk",
                "--alpha",
                "0.3",
                "0.6",
                "--n",
                "32",
                "64",
                "--realizations",
                "3",
                "--out",
                str(tmp_path / "b"),
            ]
        )
        assert rc == EXIT_OK
        header, rows = read_csv_text(tmp_path / "b_edge_sweep.csv")
        assert header == ["n", "alpha", "mean_edge", "stderr", "crude_bound"]
        assert len(rows) == 4
        assert {(int(r[0]), float(r[1])) for r in rows} == {
            (32, 0.3),
            (32, 0.6),
            (64, 0.3),
            (64, 0.6),
        }
        for r in rows:
            assert float(r[2]) < float(r[4])
            n = int(r[0])
            assert abs(float(r[4]) - (math.sqrt(n) / 2 + math.sqrt(math.log(n)) / 4)) < 1e-12

    def test_single_realization_zero_stderr(self, tmp_path):
        rc = main(
            ["bulk", "--alpha", "0.5", "--n", "32", "--realizations", "1", "--out", str(tmp_path / "b")]
        )
        assert rc == EXIT_OK
        _, rows = read_csv_text(tmp_path / "b_edge_sweep.csv")
        assert float(rows[0][3]) == 0.0

    def test_density_files_and_convergence_document(self, tmp_path):
        rc = main(
            [
                "bulk",
                "--alpha",
                "0.5",
                "--n",
                "64",
                "--realizations",
                "2",
                "--density",
                "--grid-points",
                "9",
                "--eta",
                "0.1",
                "--damping",
                "0.7",
                "--tol",
                "1e-10",
                "--out",
                str(tmp_path / "b"),
            ]
        )
        assert rc == EXIT_OK
        header, rows = read_csv_text(tmp_path / "b_density_n64_a0.5.csv")
        assert header == ["lambda", "rho_H"]
        assert len(rows) == 9
        assert all(float(r[1]) >= -1e-9 for r in rows)
        doc = json.loads((tmp_path / "b_convergence.json").read_text())
        assert (doc["config"]["eta"], doc["config"]["damping"], doc["config"]["tol"]) == (0.1, 0.7, 1e-10)
        grid = doc["grids"][0]
        assert grid["all_converged"] is True
        assert grid["converged_points"] == grid["grid_points"] == 9

    def test_sweep_cap_exits_3_and_still_writes(self, tmp_path, monkeypatch):
        import msmlab.bulk

        monkeypatch.setattr(msmlab.bulk, "_MAX_SWEEPS", 3)
        argv = ["bulk", "--alpha", "0.5", "--n", "64", "--realizations", "1", "--density", "--grid-points", "5"]
        assert main(argv + ["--out", str(tmp_path / "b")]) == EXIT_NON_CONVERGENCE
        _, rows = read_csv_text(tmp_path / "b_density_n64_a0.5.csv")
        assert len(rows) == 5
        assert all(math.isfinite(float(r[1])) for r in rows)
        grid = json.loads((tmp_path / "b_convergence.json").read_text())["grids"][0]
        assert grid["all_converged"] is False
        assert grid["converged_points"] == 0
        assert grid["max_iterations"] == 3

    def test_out_required_and_scale_guard(self, capsys, tmp_path):
        assert main(["bulk", "--n", "32"]) == EXIT_USAGE
        rc = main(["bulk", "--n", "8192", "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert rc == EXIT_USAGE

    def test_lanczos_non_convergence_exit_code(self, tmp_path, capsys, lanczos_fails):
        rc = main(["bulk", "--n", "32", "--realizations", "1", "--out", str(tmp_path / "b")])
        assert rc == EXIT_NON_CONVERGENCE
        assert_one_line_error(capsys.readouterr().err)

    def test_other_runtime_error_propagates(self, tmp_path, monkeypatch):
        # only ARPACK's non-convergence is exit 3; any other RuntimeError is a
        # fault of the program and keeps its traceback
        import scipy.sparse.linalg

        def eigsh(*args, **kwargs):
            raise RuntimeError("not a convergence failure")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
        with pytest.raises(RuntimeError, match="not a convergence failure"):
            main(["bulk", "--n", "32", "--realizations", "1", "--out", str(tmp_path / "b")])


class TestCoarseGrain:
    def test_identity_holds_at_n100_b10(self, capsys):
        rc, out = run_to_stdout(capsys, ["coarsegrain", "--n", "100", "--b", "10"])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["report"]["supernodes"] == 10
        assert doc["report"]["max_identity_violation"] < 1e-12
        assert doc["report"]["passed"] is True

    def test_trivial_block_sizes(self, capsys):
        for b, supernodes in (("1", 60), ("60", 1)):
            rc, out = run_to_stdout(capsys, ["coarsegrain", "--n", "60", "--b", b])
            assert rc == EXIT_OK
            assert json.loads(out)["report"]["supernodes"] == supernodes

    def test_random_partition(self, capsys):
        rc, out = run_to_stdout(
            capsys,
            ["coarsegrain", "--n", "64", "--b", "8", "--partition", "random", "--seed", "5"],
        )
        assert rc == EXIT_OK
        assert json.loads(out)["report"]["passed"] is True

    def test_indivisible_block_is_usage_error(self, capsys):
        rc = main(["coarsegrain", "--n", "100", "--b", "7"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert "divide" in err

    def test_file_output(self, tmp_path):
        rc = main(["coarsegrain", "--n", "40", "--b", "4", "--out", str(tmp_path / "cg")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "cg.json").read_text())
        assert doc["report"]["passed"] is True

    def test_dotted_out_prefix_is_kept_whole(self, tmp_path):
        for alpha in ("0.5", "0.2"):
            argv = ["coarsegrain", "--alpha", alpha, "--n", "40", "--b", "4"]
            assert main(argv + ["--out", str(tmp_path / f"cg_a{alpha}")]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cg_a0.2.json", "cg_a0.5.json"]
        doc = json.loads((tmp_path / "cg_a0.5.json").read_text())
        assert doc["config"]["alpha"] == 0.5

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("Unable to allocate 6.71 GiB for an array with shape (30000, 30000)",) * 2,
            ("", "out of memory"),
        ],
    )
    def test_failed_allocation_is_one_line_exit_2(self, monkeypatch, tmp_path, capsys, text, shown):
        # numpy's MemoryError names the array; a bare one names nothing
        import msmlab.model

        def coarse_grain(*args, **kwargs):
            raise MemoryError(text)

        monkeypatch.setattr(msmlab.model, "coarse_grain", coarse_grain)
        rc = main(["coarsegrain", "--n", "40", "--b", "4", "--out", str(tmp_path / "cg")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert_one_line_error(err)
        assert err == f"msmlab: error: {shown}\n"
        assert not (tmp_path / "cg.json").exists()


class TestConfigAndEnvironment:
    def test_config_file_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.3, "n": 64, "k_max": 3}))
        rc, out = run_to_stdout(
            capsys,
            ["predict", "--config", str(cfg), "--n", "100", "--format", "json"],
        )
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["alpha"] == 0.3  # from file
        assert doc["config"]["k_max"] == 3  # from file
        assert doc["config"]["n"] == 100  # flag beats file

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alhpa": 0.3}))
        rc = main(["predict", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert "alhpa" in err

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        rc = main(["predict", "--config", str(tmp_path / "absent.json")])
        capsys.readouterr()
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "Expecting property name"), ("[0.3, 64]", "config file must hold a JSON object, got list")],
        ids=["not_json", "list"],
    )
    def test_malformed_config_rejected(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["predict", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert_one_line_error(err)
        assert message in err

    @pytest.mark.parametrize(
        "argv, config, flags",
        [
            (["predict", "--k-max", "2"], {"n": "100"}, ["--n", "100"]),
            (["coarsegrain"], {"b": 0}, None),
            (["bulk", "--realizations", "1"], {"n": 64, "alpha": 0.5}, ["--n", "64", "--alpha", "0.5"]),
            (["predict"], {"k_max": 0}, None),
            (["predict"], {"format": "xml"}, None),
            (["compare", "--n", "64"], {"deterministic": "false"}, None),
            (["coarsegrain"], {"partition": "blocks"}, None),
            (["bulk", "--realizations", "1"], {"n": []}, None),
            (["predict", "--k-max", "2"], {"format": "json"}, ["--format", "json"]),
            (["compare", "--n", "64", "--k-max", "2"], {"deterministic": False}, ["--no-deterministic"]),
        ],
        ids=[
            "text_int", "b_zero", "scalar_list", "k_max_zero", "format_xml", "text_bool", "partition",
            "empty_list", "format_json", "bool_false",
        ],
    )
    def test_config_values_checked_like_flags(self, tmp_path, monkeypatch, capsys, argv, config, flags):
        # flags=None: the flag would reject the value, so the file's value must
        # exit 2 naming the key; otherwise it must write what the flags write.
        # Each run writes "run" in its own directory, so the out path that
        # JSON documents record is the same text in both
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        for side in ("file", "flag"):
            (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / "file")
        rc = main(argv + ["--config", str(path), "--out", "run"])
        err = capsys.readouterr().err
        if flags is None:
            assert rc == EXIT_USAGE
            assert_one_line_error(err)
            assert repr(next(iter(config))) in err
            return
        assert rc == EXIT_OK
        monkeypatch.chdir(tmp_path / "flag")
        assert main(argv + flags + ["--out", "run"]) == EXIT_OK
        written = sorted(p.name for p in (tmp_path / "file").iterdir())
        assert written
        for name in written:
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    @pytest.mark.parametrize(
        "argv, key, text",
        [
            (["spiral", "--steps", "10"], "omega_max", "nan"),
            (["spiral", "--steps", "10"], "omega_max", "inf"),
            (["bulk", "--n", "64", "--realizations", "1"], "grid_span", "nan"),
            (["bulk", "--n", "64", "--realizations", "1"], "grid_span", "inf"),
            (["bulk", "--n", "64", "--realizations", "1"], "eta", "inf"),
            (["bulk", "--n", "64", "--realizations", "1"], "damping", "-inf"),
            (["bulk", "--n", "64", "--realizations", "1", "--density"], "tol", "nan"),
        ],
        ids=["omega_nan", "omega_inf", "span_nan", "span_inf", "eta_inf", "damping_inf", "tol_nan"],
    )
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys, argv, key, text):
        # float() accepts nan and inf, so every float option checks that its
        # value is finite, whether it comes from a flag or a config file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: float(text)}))
        flag = "--" + key.replace("_", "-") + "=" + text  # "=" lets "-inf" through
        for given in ([flag], ["--config", str(path)]):
            assert main(argv + given + ["--out", str(tmp_path / "f")]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert_one_line_error(err)
            assert f"must be finite, got {text}" in err

    @pytest.mark.parametrize("command", ["compare", "bulk", "coarsegrain"])
    @pytest.mark.parametrize(
        "text, value, message",
        [
            ("x", "x", "invalid int value: 'x'"),
            ("-3", -3, "seed must be >= 0, got -3"),
        ],
        ids=["not_int", "negative"],
    )
    def test_seed_is_checked_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, text, value, message
    ):
        # a negative seed would reach numpy's SeedSequence, whose error names no option
        import msmlab.model

        def refuse(*args, **kwargs):
            raise AssertionError("built weights before the seed was checked")

        monkeypatch.setattr(msmlab.model, "gen_fitness", refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": value}))
        argv = [command, "--n", "64", "--out", str(tmp_path / "f")]
        for given in (["--seed", text], ["--config", str(path)]):
            assert main(argv + given) == EXIT_USAGE
            err = capsys.readouterr().err
            assert_one_line_error(err)
            assert message in err
        assert not list(tmp_path.glob("f*"))

    @pytest.mark.parametrize("command", ["compare", "bulk", "coarsegrain"])
    def test_underflowing_scale_is_usage_error(self, tmp_path, capsys, command):
        argv = [command, "--n", "2048", "--alpha", "0.01", "--out", str(tmp_path / "f")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "msmlab: error: n^(-1/alpha) underflows to 0 for n=2048, alpha=0.01\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "given, message",
        [
            (["--n", "2048", "--alpha", "0.0105"], "n^(-1/alpha) = 4.32e-316 for n=2048, alpha=0.0105 is below 2.08e-307"),
            (
                ["--n", "64", "--alpha", "0.01", "--no-deterministic", "--seed", "65"],
                "fitness weights must be finite, got inf",
            ),
        ],
        ids=["scale_below_floor", "iid_weight_overflows"],
    )
    def test_unrepresentable_model_refused_before_sampling(self, tmp_path, capsys, monkeypatch, given, message):
        import msmlab.numeric

        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the model was checked")

        monkeypatch.setattr(msmlab.numeric, "sample_sparse_adjacency", refuse)
        assert main(["compare", "--out", str(tmp_path / "f"), *given]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["predict", "compare", "spiral", "bulk", "coarsegrain"])
    def test_missing_out_directory_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        import msmlab.bulk
        import msmlab.numeric

        def refuse(*args, **kwargs):
            raise AssertionError("worked before --out was checked")

        monkeypatch.setattr(msmlab.numeric, "compare", refuse)
        monkeypatch.setattr(msmlab.bulk, "measure_bulk_edge", refuse)
        missing = tmp_path / "missing"
        assert main([command, "--n", "64", "--out", str(missing / "x")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"msmlab: error: --out directory {missing} does not exist\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text", ["", ".", "runs/", "runs/.", "runs/.."])
    @pytest.mark.parametrize("command", ["predict", "compare", "spiral", "bulk", "coarsegrain"])
    def test_out_without_file_name_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command, text):
        # Path drops a trailing separator and keeps "." and "..", so these
        # would name hidden files or files beside or above runs/
        import msmlab.bulk
        import msmlab.numeric

        def refuse(*args, **kwargs):
            raise AssertionError("worked before --out was checked")

        monkeypatch.setattr(msmlab.numeric, "compare", refuse)
        monkeypatch.setattr(msmlab.bulk, "measure_bulk_edge", refuse)
        (tmp_path / "work" / "runs").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "work")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out": text}))
        argv = [command, "--n", "64"]
        for given, prefix in ((["--out", text], "argument --out"), (["--config", str(config)], "config key 'out'")):
            assert main(argv + given) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == f"msmlab: error: {prefix}: must end in a file name prefix, got {text!r}\n"
        assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*"))] == [
            "cfg.json",
            "work",
            "work/runs",
        ]

    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("eta", "0", "eta must be > 0, got 0.0"),
            ("eta", "-0.1", "eta must be > 0, got -0.1"),
            ("damping", "0", "damping must lie in (0,1], got 0.0"),
            ("damping", "1.5", "damping must lie in (0,1], got 1.5"),
            ("tol", "0", "tol must be > 0, got 0.0"),
            ("tol", "-1e-09", "tol must be > 0, got -1e-09"),
        ],
        ids=["eta_zero", "eta_negative", "damping_zero", "damping_above_one", "tol_zero", "tol_negative"],
    )
    def test_solver_option_out_of_range_is_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, key, text, message
    ):
        # the converters check what the cavity solver would reject, so the
        # edge sweep never starts; tol <= 0 would otherwise run every sweep
        import msmlab.bulk

        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the options were checked")

        monkeypatch.setattr(msmlab.bulk, "measure_bulk_edge", refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: float(text)}))
        argv = ["bulk", "--n", "64", "--realizations", "1", "--density", "--out", str(tmp_path / "f")]
        for given in (["--" + key + "=" + text], ["--config", str(path)]):
            assert main(argv + given) == EXIT_USAGE
            err = capsys.readouterr().err
            assert_one_line_error(err)
            assert message in err
        assert not list(tmp_path.glob("f*"))

    def test_threads_flag_caps_blas_pool(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "environ", {})
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # above every value asked for
        _apply_threads(2)
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["MKL_NUM_THREADS"] == "2"

    def test_env_variable_fills_in_when_flag_absent(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "environ", {"MSMLAB_THREADS": "3"})
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # above every value asked for
        _apply_threads(None)
        assert os.environ["OMP_NUM_THREADS"] == "3"
        # explicit flag wins over the environment
        _apply_threads(1)
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "environ", {})
        _apply_threads(os.cpu_count() + 1)
        assert os.environ["OPENBLAS_NUM_THREADS"] == str(os.cpu_count())

    @pytest.mark.parametrize(
        "argv, environ, last_line",
        [
            (["--threads", "0"], {}, "msmlab: error: argument --threads: must be >= 1, got 0"),
            (["--threads", "-3"], {}, "msmlab: error: argument --threads: must be >= 1, got -3"),
            ([], {"MSMLAB_THREADS": "0"}, "msmlab: error: environment variable MSMLAB_THREADS: must be >= 1, got 0"),
            ([], {"MSMLAB_THREADS": "x"}, "msmlab: error: environment variable MSMLAB_THREADS: invalid int value: 'x'"),
            (["--n", "x"], {}, "msmlab: error: argument --n: invalid int value: 'x'"),
            (["--alpha", "abc"], {}, "msmlab: error: argument --alpha: invalid float value: 'abc'"),
        ],
        ids=["flag_zero", "flag_negative", "env_zero", "env_text", "n_text", "alpha_text"],
    )
    def test_thread_count_below_one_is_usage_error(self, monkeypatch, capsys, argv, environ, last_line):
        # a rejected flag and a rejected environment variable print the
        # same one-line error; text that is no number reads as it does for
        # a plain int or float option, never naming the converter
        import os

        monkeypatch.setattr(os, "environ", environ)
        assert main(["predict", "--n", "100", "--k-max", "2"] + argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == last_line
        assert_one_line_error(err)

    def test_no_threads_request_leaves_environment_alone(self, monkeypatch):
        import os

        monkeypatch.delenv("MSMLAB_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _apply_threads(None)
        assert "OMP_NUM_THREADS" not in os.environ

    def test_threads_after_numpy_loaded_warn(self, monkeypatch, capsys):
        # numpy is loaded in this process, so the BLAS pool is already sized
        import os

        argv = ["predict", "--n", "100", "--k-max", "2", "--threads", "1"]
        monkeypatch.setattr(os, "environ", {})
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("msmlab: warning: ")
        # the variables now read 1, as if numpy had loaded after them
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_threads_before_numpy_loads_are_silent(self):
        result = subprocess.run(
            [sys.executable, "-m", "msmlab.cli", "predict", "--n", "100", "--k-max", "2", "--threads", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == EXIT_OK
        assert result.stdout.startswith("k,omega_k")
        assert result.stderr == ""

    def test_cli_import_leaves_numpy_unloaded(self):
        # --threads only takes effect if numpy loads after it is applied.
        code = "import sys, msmlab.cli; sys.exit('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], timeout=120)
        assert result.returncode == 0


    def test_model_import_leaves_scipy_unloaded(self):
        # coarsegrain loads cli, model and output only; scipy.sparse alone
        # takes about a quarter second to import
        code = "import sys, msmlab.model; sys.exit('scipy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], timeout=120)
        assert result.returncode == 0

    def test_bulk_import_leaves_the_closed_forms_unloaded(self):
        # bulk reaches noise_norm through numeric, whose compare alone
        # imports the closed forms, and with them scipy.optimize and scipy.special
        unwanted = ("msmlab.spectrum", "msmlab.eigenvectors", "scipy.optimize", "scipy.special")
        code = f"import sys, msmlab.cli, msmlab.bulk; print(*(m for m in {unwanted!r} if m in sys.modules))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            ["msmlab", "predict", "--n", "100", "--k-max", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("k,omega_k")

    def test_module_invocation_matches_script(self):
        script = subprocess.run(
            ["msmlab", "predict", "--n", "100", "--k-max", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        module = subprocess.run(
            [sys.executable, "-m", "msmlab.cli", "predict", "--n", "100", "--k-max", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert script.stdout == module.stdout

    def test_usage_error_exit_code_from_shell(self):
        result = subprocess.run(
            ["msmlab", "compare", "--n", "64"], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 2
