import argparse
import ast
import csv
import re
from pathlib import Path

import numpy as np
import pytest

from dynstack import cli
from dynstack.cli import build_parser, main
from dynstack.experiment import METHODS as LEVEL1_METHODS
from dynstack.simulation import METHODS, fit_method, generate_case, parse_method
from dynstack.stacking import (
    FitConfig,
    Level1Data,
    default_basis,
    load_model,
    read_level1,
    save_model,
    select_lambda,
    select_strength,
    write_level1,
)
from dynstack.synth import planted_homophily_network


@pytest.fixture(scope="module")
def network_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("net")
    net = planted_homophily_network(n_nodes=260, seed=5)
    net.write(root / "edges.txt", root / "labels.csv", root / "features.txt")
    return root


@pytest.fixture(scope="module")
def level1_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("lvl")
    write_level1(root / "level1.csv", generate_case(3, 300, 9).to_level1())
    return root / "level1.csv"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulateCommand:
    def test_report_rows_and_manifest(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate", "--case", "3", "--n", "200", "--reps", "2",
                "--folds", "3", "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "simulation_report.csv")
        assert rows[0] == ["case", "method", "mean_auc", "sd_auc", "n_reps"]
        assert len(rows) == 1 + 13  # all thirteen methods by default
        manifest = (out / "manifest.txt").read_text()
        assert "command = simulate" in manifest and "seed = 7" in manifest

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "simulate", "--case", "1", "--n", "150", "--reps", "2",
            "--folds", "3", "--seed", "3", "--raw",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("simulation_report.csv", "simulation_raw.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_case_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--case", "9", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_zero_reps_is_one_line_error(self, tmp_path, capsys):
        assert main(["simulate", "--case", "1", "--reps", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: reps must be >= 1\n"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_one_line_error(self, tmp_path, capsys, threads):
        out = tmp_path / "sim"
        args = ["simulate", "--case", "1", "--n", "200", "--reps", "1", "--threads", threads]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: threads must be >= 1\n"
        assert not (out / "manifest.txt").exists()

    def test_threads_do_not_change_outputs(self, tmp_path):
        args = [
            "simulate", "--case", "2", "--n", "160", "--reps", "3",
            "--folds", "3", "--seed", "11", "--raw",
        ]
        one, two = tmp_path / "t1", tmp_path / "t2"
        assert main(args + ["--threads", "1", "--out", str(one)]) == 0
        assert main(args + ["--threads", "2", "--out", str(two)]) == 0
        names = sorted(f.name for f in one.iterdir())
        assert names == sorted(f.name for f in two.iterdir())
        for name in names:
            a, b = (one / name).read_text(), (two / name).read_text()
            if name == "manifest.txt":  # records the flag itself
                a, b = a.replace("threads = 1\n", ""), b.replace("threads = 2\n", "")
            assert a == b, name


class TestCentralityCommand:
    def test_path_closeness_values(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\nb c\n")
        out = tmp_path / "cent"
        assert main(["centrality", "--edges", str(edges), "--kind", "closeness", "--out", str(out)]) == 0
        rows = read_csv(out / "covariate.csv")
        assert rows[0] == ["node_id", "value"]
        got = {r[0]: float(r[1]) for r in rows[1:]}
        assert got == pytest.approx({"a": 1 / 3, "b": 1 / 2, "c": 1 / 3})

    def test_degree_star(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"hub leaf{i}\n" for i in range(5)))
        out = tmp_path / "cent"
        assert main(["centrality", "--edges", str(edges), "--kind", "degree", "--out", str(out)]) == 0
        got = {r[0]: float(r[1]) for r in read_csv(out / "covariate.csv")[1:]}
        assert got["hub"] == 5.0

    def test_takes_largest_component(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\nb c\nx y\n")
        out = tmp_path / "cent"
        assert main(["centrality", "--edges", str(edges), "--kind", "closeness", "--out", str(out)]) == 0
        names = {r[0] for r in read_csv(out / "covariate.csv")[1:]}
        assert names == {"a", "b", "c"}

    def test_empty_edge_file_fails(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("")
        assert main(["centrality", "--edges", str(edges), "--out", str(tmp_path / "o")]) == 1

    def test_missing_file_fails(self, tmp_path):
        assert main(["centrality", "--edges", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]) == 1

    def test_bad_edge_line_names_file(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\n# note\nb b\n")
        assert main(["centrality", "--edges", str(edges), "--out", str(tmp_path / "o")]) == 1
        assert f"{edges} line 3: self-loop on 'b'" in capsys.readouterr().err


class TestGraphExperimentCommand:
    def test_full_run_artifacts(self, network_files, tmp_path):
        out = tmp_path / "gx"
        code = main(
            [
                "graph-experiment",
                "--edges", str(network_files / "edges.txt"),
                "--labels", str(network_files / "labels.csv"),
                "--features", str(network_files / "features.txt"),
                "--covariate", "degree",
                "--test-fraction", "0.5",
                "--reps", "2", "--folds", "4", "--seed", "2",
                "--positive-label", "topic/positive",
                "--out", str(out),
            ]
        )
        assert code == 0
        acc = read_csv(out / "accuracy_report.csv")
        assert acc[0] == ["method", "mean_accuracy", "sd_accuracy", "n_reps"]
        assert {r[0] for r in acc[1:]} == {
            "dynamic",
            *(f"{k}_{d}" for k in ("logistic", "lasso", "ridge") for d in ("m1", "m2", "m3")),
        }
        cmp_rows = read_csv(out / "paired_comparisons.csv")
        assert cmp_rows[0] == ["method_a", "method_b", "mean_diff", "p_value"]
        assert len(cmp_rows) == 1 + 9
        curves = read_csv(out / "coefficient_curves.csv")
        assert curves[0] == ["u", "local_nb:class0", "wvrn_ica:class0"]
        assert len(curves) == 1 + 200
        assert (out / "binned_deltas.csv").exists()
        assert (out / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "flag,message", [("--reps", "reps must be >= 1"), ("--bins", "bins must be >= 1, got 0")]
    )
    def test_zero_reps_or_bins_is_one_line_error(
        self, network_files, tmp_path, capsys, flag, message
    ):
        code = main(
            [
                "graph-experiment",
                "--edges", str(network_files / "edges.txt"),
                "--labels", str(network_files / "labels.csv"),
                "--features", str(network_files / "features.txt"),
                "--covariate", "degree", flag, "0",
                "--positive-label", "topic/positive",
                "--out", str(tmp_path / "gx"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_one_line_error(self, network_files, tmp_path, capsys, threads):
        out = tmp_path / "gx"
        code = main(
            [
                "graph-experiment",
                "--edges", str(network_files / "edges.txt"),
                "--labels", str(network_files / "labels.csv"),
                "--features", str(network_files / "features.txt"),
                "--covariate", "degree", "--threads", threads,
                "--positive-label", "topic/positive",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: threads must be >= 1\n"
        assert not (out / "manifest.txt").exists()

    def test_bins_with_degree_is_usage_error(self, network_files, tmp_path, capsys):
        # degree is binned one integer per bin, so --bins would do nothing
        out = tmp_path / "gx"
        code = main(
            [
                "graph-experiment",
                "--edges", str(network_files / "edges.txt"),
                "--labels", str(network_files / "labels.csv"),
                "--features", str(network_files / "features.txt"),
                "--covariate", "degree", "--bins", "20",
                "--positive-label", "topic/positive",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "one integer per bin" in err
        assert not out.exists()

    def test_missing_feature_file_fails_cleanly(self, network_files, tmp_path, capsys):
        code = main(
            [
                "graph-experiment",
                "--edges", str(network_files / "edges.txt"),
                "--labels", str(network_files / "labels.csv"),
                "--features", str(network_files / "missing.txt"),
                "--positive-label", "topic/positive",
                "--out", str(tmp_path / "gx"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,bad,message",
        [
            ("edges", "a b\nb c d e\n", r"edges.txt line 2: expected 'id1 id2 \[weight\]'"),
            ("features", "a w:1\nb w:1\nc w:x\n", "features.txt line 3: non-numeric weight"),
            (
                "edges",
                "a b 1e308\nb a 1e308\n",
                "edges.txt line 2: the parallel edges between 'a' and 'b' sum to a non-finite",
            ),
        ],
        ids=["edges", "features", "edge-sum"],
    )
    def test_bad_input_line_names_file(self, tmp_path, capsys, kind, bad, message):
        files = {"edges": "a b\nb c\n", "labels": "a,p\nb,q\nc,p\n", "features": "a w:1\n"}
        files[kind] = bad
        names = {"edges": "edges.txt", "labels": "labels.csv", "features": "features.txt"}
        for key, text in files.items():
            (tmp_path / names[key]).write_text(text)
        code = main(
            [
                "graph-experiment",
                "--edges", str(tmp_path / "edges.txt"),
                "--labels", str(tmp_path / "labels.csv"),
                "--features", str(tmp_path / "features.txt"),
                "--positive-label", "p", "--out", str(tmp_path / "gx"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err

    @pytest.mark.parametrize(
        "labels,message",
        [
            ("a,p\nzz,q\n", "labels.csv line 2: label for unknown node id 'zz'"),
            ("a,p\n\na,q\n", "labels.csv line 3: conflicting labels for node 'a'"),
        ],
        ids=["unknown", "conflicting"],
    )
    def test_bad_label_names_file_and_line(self, tmp_path, capsys, labels, message):
        (tmp_path / "edges.txt").write_text("a b\nb c\n")
        (tmp_path / "labels.csv").write_text(labels)
        (tmp_path / "features.txt").write_text("a w:1\n")
        code = main(
            [
                "graph-experiment",
                "--edges", str(tmp_path / "edges.txt"),
                "--labels", str(tmp_path / "labels.csv"),
                "--features", str(tmp_path / "features.txt"),
                "--positive-label", "p", "--out", str(tmp_path / "gx"),
            ]
        )
        assert code == 1
        assert f"error: {tmp_path / message}" in capsys.readouterr().err

    def test_disconnected_closeness_mentions_lcc_flag(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\nb c\nx y\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("a,p\nb,q\nc,p\nx,q\ny,p\n")
        feats = tmp_path / "features.txt"
        feats.write_text("a w:1\nb w:1\nc w:1\nx w:1\ny w:1\n")
        code = main(
            [
                "graph-experiment",
                "--edges", str(edges), "--labels", str(labels),
                "--features", str(feats), "--covariate", "closeness",
                "--positive-label", "p", "--out", str(tmp_path / "gx"),
            ]
        )
        assert code == 1
        assert "--lcc" in capsys.readouterr().err


class TestStackCommands:
    def test_fit_predict_curves_round_trip(self, level1_file, tmp_path):
        fit_out = tmp_path / "fit"
        assert main(
            [
                "stack-fit", "--level1", str(level1_file), "--model", "dynamic",
                "--strength", "1.0", "--out", str(fit_out),
            ]
        ) == 0
        model = load_model(fit_out / "model.txt")
        assert (model.design, model.penalty, model.strength) == ("dynamic", "curvature", 1.0)

        pred_out = tmp_path / "pred"
        assert main(
            [
                "stack-predict", "--model", str(fit_out / "model.txt"),
                "--data", str(level1_file), "--out", str(pred_out),
            ]
        ) == 0
        rows = read_csv(pred_out / "predictions.csv")
        assert rows[0] == ["row", "probability"]
        probs = np.array([float(r[1]) for r in rows[1:]])
        assert len(probs) == 300 and np.all((probs > 0) & (probs < 1))

        cur_out = tmp_path / "cur"
        assert main(
            [
                "curves", "--model", str(fit_out / "model.txt"),
                "--points", "50", "--out", str(cur_out),
            ]
        ) == 0
        cur = read_csv(cur_out / "curves.csv")
        assert cur[0] == ["u", "z1", "z2"] and len(cur) == 51

    def test_fit_with_cv_writes_report(self, level1_file, tmp_path):
        out = tmp_path / "fitcv"
        assert main(
            [
                "stack-fit", "--level1", str(level1_file), "--model", "ridge_m2",
                "--folds", "4", "--out", str(out),
            ]
        ) == 0
        rows = read_csv(out / "cv_report.csv")
        assert rows[0] == ["penalty_strength", "heldout_nll"]
        assert len(rows) == 1 + 21  # default grid size
        model = load_model(out / "model.txt")
        assert model.penalty == "ridge" and model.strength > 0

    @pytest.mark.parametrize("name", LEVEL1_METHODS)
    def test_model_name_fits_as_fit_method(self, level1_file, tmp_path, name):
        # stack-fit --model <name> writes fit_method's model, and its CV profile
        # is the one select_lambda or select_strength gives at the same seed
        out = tmp_path / "fit"
        argv = ["stack-fit", "--level1", str(level1_file), "--model", name, "--folds", "3"]
        assert main([*argv, "--seed", "4", "--out", str(out)]) == 0
        data, config = read_level1(level1_file), FitConfig(cv_folds=3)
        model, report = fit_method(name, data, 3, 4)
        save_model(tmp_path / "expected.txt", model)
        assert (out / "model.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()
        design, penalty = parse_method(name)
        if penalty == "none":
            assert report is None and not (out / "cv_report.csv").exists()
            return
        if design == "dynamic":
            _, profile = select_lambda(data, config, default_basis(data.u), seed=4)
        else:
            _, profile = select_strength(data, design, penalty, config, seed=4)
        assert report == profile
        assert read_csv(out / "cv_report.csv")[1:] == [[repr(s), repr(v)] for s, v in profile]

    def test_curves_on_static_model_fails(self, level1_file, tmp_path, capsys):
        out = tmp_path / "fitstat"
        assert main(
            [
                "stack-fit", "--level1", str(level1_file), "--model", "logistic_m1",
                "--out", str(out),
            ]
        ) == 0
        argv = ["curves", "--model", str(out / "model.txt"), "--out", str(tmp_path / "c")]
        assert main(argv) == 1
        assert "dynamic" in capsys.readouterr().err

    def test_predict_with_other_z_width_names_both_files(self, level1_file, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        argv = ["stack-fit", "--level1", str(level1_file), "--model", "logistic_m1"]
        assert main([*argv, "--out", str(fit_out)]) == 0
        data = read_level1(level1_file)
        one = tmp_path / "one.csv"
        write_level1(one, Level1Data(data.y, data.z[:, :1], data.u, data.columns[:1]))
        model = fit_out / "model.txt"
        pred_out = tmp_path / "pred"
        argv = ["stack-predict", "--model", str(model), "--data", str(one)]
        assert main([*argv, "--out", str(pred_out)]) == 1
        assert capsys.readouterr().err == f"error: {one}, {model}: expected 2 z columns, got 1\n"
        assert not pred_out.exists()

    @pytest.mark.parametrize(
        "flags,unread",
        [
            (["--model", "dynamic", "--penalty", "lasso"], "--penalty"),
            (["--model", "ridge_m2", "--lam", "1.0"], "--lam"),
            (["--model", "logistic_m3", "--lam", "1.0"], "--lam"),
            (["--model", "logistic_m1", "--strength", "0.5"], "--strength"),
            (["--model", "logistic_m2", "--strength", "0.5"], "--strength"),
            (["--model", "lasso_m3", "--knots", "4"], "--knots"),
            (["--model", "ridge_m1", "--knots", "4"], "--knots"),
            (["--model", "logistic_m1", "--spline-degree", "2"], "--spline-degree"),
        ],
        ids=[
            "dynamic-penalty", "ridge-lam", "logistic-lam", "logistic-strength",
            "logistic-m2-strength", "lasso-knots", "ridge-knots", "logistic-spline-degree",
        ],
    )
    def test_unread_fit_flag_is_usage_error(self, level1_file, tmp_path, capsys, flags, unread):
        # the model would ignore the flag, yet the manifest would record it;
        # --penalty and --lam are no flags of stack-fit at all
        out = tmp_path / "fit"
        argv = ["stack-fit", "--level1", str(level1_file), *flags, "--out", str(out)]
        if unread in ("--penalty", "--lam"):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            last = capsys.readouterr().err.splitlines()[-1]
            assert last.endswith(f"error: unrecognized arguments: {unread} {flags[-1]}")
        else:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: {unread} does not apply to --model {flags[1]}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--model", "dynamic", "--strength", "nan"],
            ["--model", "dynamic", "--strength", "inf"],
            ["--model", "dynamic", "--strength", "-1"],
            ["--model", "ridge_m3", "--strength", "nan"],
            ["--model", "lasso_m1", "--strength=-inf"],
        ],
        ids=["lam-nan", "lam-inf", "lam-negative", "ridge-nan", "lasso-minus-inf"],
    )
    def test_bad_penalty_strength_writes_no_model(self, level1_file, tmp_path, capsys, flags):
        # a NaN strength used to fit unpenalized and record "lambda = nan"
        out = tmp_path / "fit"
        assert main(["stack-fit", "--level1", str(level1_file), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: strength: penalty strength must be finite and >= 0") and err.count("\n") == 1
        assert not (out / "model.txt").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flags",
        [
            ["--model", "dynamic", "--strength", "1e306"],
            ["--model", "dynamic", "--strength", "1e304"],
            ["--model", "ridge_m1", "--strength", "1e308"],
        ],
        ids=["lam-1e306", "lam-1e304", "ridge-1e308"],
    )
    def test_overflowing_penalty_strength_is_one_line_error(
        self, level1_file, tmp_path, capsys, flags
    ):
        # these ended in a RuntimeWarning and a non-finite objective or matrix
        out = tmp_path / "fit"
        assert main(["stack-fit", "--level1", str(level1_file), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        value = float(flags[-1])
        assert err == f"error: penalty strength {value} overflows 2 * strength * weight\n"
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_curves_points_below_one_is_usage_error(self, level1_file, tmp_path, capsys, points):
        # -1 ended in a numpy error; 0 wrote a curves.csv holding only its header
        fit_out = tmp_path / "fit"
        argv = ["stack-fit", "--level1", str(level1_file), "--strength", "1.0", "--out", str(fit_out)]
        assert main(argv) == 0
        cur_out = tmp_path / "cur"
        argv = ["curves", "--model", str(fit_out / "model.txt"), "--points", points]
        assert main([*argv, "--out", str(cur_out)]) == 2
        assert capsys.readouterr().err == f"error: --points must be >= 1, got {points}\n"
        assert not cur_out.exists()

    @pytest.mark.parametrize(
        "flags,recorded,dropped",
        [
            (
                ["--model", "lasso_m3"],
                {"model": "lasso_m3", "strength": "cv"},
                {"knots", "spline_degree"},
            ),
            (["--model", "logistic_m1"], {"model": "logistic_m1"}, {"knots", "spline_degree", "strength"}),
            (
                ["--model", "dynamic", "--strength", "1.0"],
                {"strength": "1.0", "knots": "6", "spline_degree": "3"},
                {"penalty", "lam"},
            ),
        ],
        ids=["lasso", "logistic", "dynamic"],
    )
    def test_manifest_records_only_read_flags(self, level1_file, tmp_path, flags, recorded, dropped):
        out = tmp_path / "fit"
        argv = ["stack-fit", "--level1", str(level1_file), "--folds", "3", *flags]
        assert main([*argv, "--out", str(out)]) == 0
        manifest = dict(
            line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
        )
        assert {k: manifest.get(k) for k in recorded} == recorded
        assert not dropped & manifest.keys()

    def test_dynamic_basis_defaults_are_six_knots_cubic(self, level1_file, tmp_path):
        argv = ["stack-fit", "--level1", str(level1_file), "--strength", "1.0"]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        explicit = ["--knots", "6", "--spline-degree", "3", "--out", str(tmp_path / "b")]
        assert main([*argv, *explicit]) == 0
        model = (tmp_path / "a" / "model.txt").read_bytes()
        assert model == (tmp_path / "b" / "model.txt").read_bytes()

    def test_curves_with_missing_column_line_fails(self, level1_file, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        argv = ["stack-fit", "--level1", str(level1_file), "--strength", "1.0", "--out", str(fit_out)]
        assert main(argv) == 0
        path = fit_out / "model.txt"
        lines = [line for line in path.read_text().splitlines() if line != "column = z2"]
        path.write_text("\n".join(lines) + "\n")
        cur_out = tmp_path / "cur"
        assert main(["curves", "--model", str(path), "--points", "3", "--out", str(cur_out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path} line 5: p: 1 column names for p = 2\n"  # the p line
        assert not (cur_out / "curves.csv").exists()

    def test_predict_with_damaged_model_fails(self, level1_file, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        argv = ["stack-fit", "--level1", str(level1_file), "--strength", "1.0", "--out", str(fit_out)]
        assert main(argv) == 0
        path = fit_out / "model.txt"
        lines = path.read_text().splitlines()
        lines = [
            "knots = " + " ".join(reversed(line[8:].split())) if line.startswith("knots = ") else line
            for line in lines
        ]
        path.write_text("\n".join(lines) + "\n")
        pred_out = tmp_path / "pred"
        argv = ["stack-predict", "--model", str(path), "--data", str(level1_file)]
        assert main([*argv, "--out", str(pred_out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path} line 9: 'knots' are not")
        assert not (pred_out / "predictions.csv").exists()


class TestFailedRunLeavesNoOutput:
    @pytest.mark.parametrize(
        "command", ["stack-fit", "stack-predict", "curves", "centrality", "graph-experiment"]
    )
    def test_no_output_directory(self, level1_file, tmp_path, capsys, command):
        # each run fails while loading its inputs, before it has anything to write
        bad_level1 = tmp_path / "bad.csv"
        bad_level1.write_text("y,z_1,u\n1,1.5,0.3\n")
        old_model = tmp_path / "old_model.txt"
        old_model.write_text("dynstack-model 1\nkind = dynamic\n")
        bad_edges = tmp_path / "edges.txt"
        bad_edges.write_text("a b\nb b\n")
        argv = {
            "stack-fit": ["--level1", bad_level1],
            "stack-predict": ["--model", old_model, "--data", level1_file],
            "curves": ["--model", old_model],
            "centrality": ["--edges", bad_edges],
            "graph-experiment": [
                "--edges", bad_edges, "--labels", tmp_path / "labels.csv",
                "--features", tmp_path / "features.txt", "--positive-label", "c",
            ],
        }[command]
        out = tmp_path / "out"
        assert main([command, *map(str, argv), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "case",
        [
            "bins-with-degree", "unread-fit-flag", "curves-points", "disconnected-closeness",
            "curves-static-model", "level1-without-z",
        ],
    )
    def test_every_failure_is_one_line_and_no_output(self, tmp_path, capsys, case):
        # main creates --out only once the command has returned; a flag the
        # command cannot use exits 2, any other failure 1
        missing = tmp_path / "missing.txt"
        (tmp_path / "edges.txt").write_text("a b\nb c\nx y\n")
        (tmp_path / "labels.csv").write_text("a,p\nb,q\nc,p\nx,q\ny,p\n")
        (tmp_path / "features.txt").write_text("a w:1\nb w:1\nc w:1\nx w:1\ny w:1\n")
        (tmp_path / "no_z.csv").write_text("y,u\n1,0.5\n0,0.25\n")
        data = generate_case(1, 60, 1).to_level1()
        save_model(tmp_path / "static.txt", fit_method("logistic_m1", data, 2, 0)[0])
        graph = [
            "graph-experiment", "--labels", tmp_path / "labels.csv",
            "--features", tmp_path / "features.txt", "--positive-label", "p",
        ]
        code, names, argv = {
            "bins-with-degree": (
                2, "--bins", [*graph, "--edges", missing, "--covariate", "degree", "--bins", "5"]
            ),
            "unread-fit-flag": (
                2,
                "--knots",
                ["stack-fit", "--level1", missing, "--model", "ridge_m1", "--knots", "4"],
            ),
            "curves-points": (2, "--points", ["curves", "--model", missing, "--points", "0"]),
            "disconnected-closeness": (1, "--lcc", [*graph, "--edges", tmp_path / "edges.txt"]),
            "curves-static-model": (
                1, "static.txt: coefficient curves", ["curves", "--model", tmp_path / "static.txt"]
            ),
            "level1-without-z": (
                1,
                "no_z.csv: unexpected level-1 header",
                ["stack-fit", "--level1", tmp_path / "no_z.csv"],
            ),
        }[case]
        out = tmp_path / "out"
        assert main([*map(str, argv), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert names in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "graph-experiment", "stack-fit"])
    def test_one_fold_is_one_line_error_before_reading_inputs(self, tmp_path, capsys, command):
        # the input files do not exist: the fold count is checked before any is read
        missing = str(tmp_path / "missing.txt")
        argv = {
            "simulate": ["--case", "1"],
            "graph-experiment": [
                "--edges", missing, "--labels", missing, "--features", missing,
                "--positive-label", "c",
            ],
            "stack-fit": ["--level1", missing],
        }[command]
        out = tmp_path / "out"
        assert main([command, *argv, "--folds", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cross-validation needs at least 2 folds\n"
        assert not out.exists()


def test_only_main_writes_or_exits():
    # a command returns its files and manifest text or raises; main alone
    # creates --out, writes, prints and picks the exit status
    tree = ast.parse(Path(cli.__file__).read_text())
    found = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("print", "mkdir", "open", "write_text", "_write_csv", "exit"):
                    found.append(f"{fn.name} calls {name}")
            elif isinstance(node, ast.Raise) and "SystemExit" in ast.unparse(node):
                found.append(f"{fn.name} raises SystemExit")
    assert found == []


def parsed_flags(command):
    """Destinations of the options ``command`` accepts, without ``--out``."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest
        for a in sub.choices[command]._actions
        if a.option_strings and a.dest not in ("help", "out")
    }


def manifest_keys(out):
    lines = (out / "manifest.txt").read_text().splitlines()
    return {line.split(" = ", 1)[0] for line in lines} - {"command"}


class TestManifest:
    @pytest.fixture(scope="class")
    def runs(self, network_files, level1_file, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest")
        edges = str(network_files / "edges.txt")
        model = str(root / "stack-fit" / "model.txt")
        argv = {
            "simulate": ["--case", "1", "--n", "150", "--reps", "2", "--folds", "3"],
            "graph-experiment": [
                "--edges", edges,
                "--labels", str(network_files / "labels.csv"),
                "--features", str(network_files / "features.txt"),
                "--covariate", "degree", "--test-fraction", "0.5",
                "--reps", "1", "--folds", "3", "--positive-label", "topic/positive",
            ],
            "centrality": ["--edges", edges, "--kind", "degree"],
            "stack-fit": ["--level1", str(level1_file), "--strength", "1.0"],
            "stack-predict": ["--model", model, "--data", str(level1_file)],
            "curves": ["--model", model, "--points", "5"],
        }
        for command, flags in argv.items():
            assert main([command, *flags, "--out", str(root / command)]) == 0
        return root

    @pytest.mark.parametrize(
        "command",
        ["simulate", "graph-experiment", "centrality", "stack-fit", "stack-predict", "curves"],
    )
    def test_keys_are_the_parsed_flags(self, runs, command):
        expected = parsed_flags(command)
        if command == "stack-fit":  # a dynamic fit reads every flag
            expected = expected | {"chosen_strength"}
        assert manifest_keys(runs / command) == expected
        assert (runs / command / "manifest.txt").read_text().startswith(f"command = {command}\n")

    def test_resolved_values(self, runs):
        sim = (runs / "simulate" / "manifest.txt").read_text()
        assert "methods = " + ",".join(METHODS) + "\n" in sim
        fit = (runs / "stack-fit" / "manifest.txt").read_text()
        assert "strength = 1.0\n" in fit and "knots = 6\n" in fit and "spline_degree = 3\n" in fit
        assert "chosen_strength = 1.0\n" in fit

    def test_default_bins_recorded(self, runs):
        # the degree run passes no --bins; its manifest names the value used
        assert "bins = 100\n" in (runs / "graph-experiment" / "manifest.txt").read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["centrality", "--edges", "e.txt", "--threads", "2"],
            ["curves", "--model", "m.txt", "--seed", "1"],
        ],
        ids=["centrality-threads", "curves-seed"],
    )
    def test_unread_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
