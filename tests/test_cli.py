"""Command-line interface: subcommands, determinism, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tbmlearn import (
    RBMModel,
    SampleSpace,
    baselines,
    dumps_model,
    evaluate_gibbs,
    fit_tbm,
    fit_to_moments,
    fitting,
    format_fimi,
    load_model,
    parse_fimi,
    save_model,
    synth_dataset,
)
from tbmlearn import cli
from tbmlearn.cli import main

from conftest import WORKED_KL
from oracles import exact_proxy, exact_scores

WORKED_TEXT = "\n1\n2\n1 2\n1\n1 2\n\n1\n1 2\n1 2\n"


@pytest.fixture
def worked_file(tmp_path):
    # two empty lines stand in for the two empty transactions
    path = tmp_path / "data.fimi"
    path.write_text(WORKED_TEXT)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestMine:
    def test_output_layout(self, worked_file, tmp_path, capsys):
        code = run(
            "mine",
            "--input", worked_file,
            "--empty-transactions", "bottom",
            "--sigma", "0.45",
            "--k", "2",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = json.loads(lines[0])
        assert header == {"sigma": 0.45, "k": 2, "n": 3, "N": 10, "size": 2}
        assert lines[1:] == ["1", "2"]

    def test_lexicographic_listing(self, worked_file, capsys):
        run(
            "mine",
            "--input", worked_file,
            "--empty-transactions", "bottom",
            "--sigma", "0.3",
            "--k", "2",
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1:] == ["1", "1 2", "2"]


class TestFitTbm:
    def test_model_file_and_determinism(self, worked_file, tmp_path):
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        for out in (out1, out2):
            code = run(
                "fit-tbm",
                "--input", worked_file,
                "--empty-transactions", "bottom",
                "--sigma", "0.45",
                "--k", "2",
                "--tol", "1e-9",
                "--out", out,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        model, report, meta = load_model(out1)
        assert report.converged
        assert model.prob((1,)) == pytest.approx(0.35, abs=1e-7)
        assert meta["mined_domain_size"] == 2
        assert "seed" not in meta

    def test_all_parameters_removed_exits_4(self, tmp_path):
        path = tmp_path / "const.fimi"
        path.write_text("0\n0\n0\n")
        out = tmp_path / "m.json"
        code = run(
            "fit-tbm", "--input", path, "--sigma", "0.9", "--k", "1", "--out", out
        )
        assert code == 4
        model, report, _ = load_model(out)
        assert report.domain_emptied

    def test_fisher_budget_is_data_error(self, worked_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fitting, "FISHER_MAX_BYTES", 1)
        out = tmp_path / "m.json"
        code = run("fit-tbm", "--input", worked_file, "--sigma", "0.45", "--k", "2", "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 3 parameters need") and "raise sigma or lower k" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit-tbm", "fit-bm"])
    def test_unconverged_fit_warns(self, worked_file, tmp_path, capsys, command):
        out = tmp_path / "m.json"
        code = run(
            command, "--input", worked_file, "--sigma", "0.45", "--k", "2",
            "--max-iters", "1", "--out", out,
        )
        assert code == 0
        _, report, _ = load_model(out)
        assert not report.converged and report.iterations == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("warning: fit stopped unconverged after 1 iterations")
        assert f"moment gap {report.final_gap:.3g} above tol 1e-06" in err


class TestFitBm:
    def test_small_universe(self, tmp_path):
        path = tmp_path / "d.fimi"
        path.write_text("0\n0 1\n1\n0\n")
        out = tmp_path / "bm.json"
        code = run(
            "fit-bm", "--input", path, "--sigma", "0.2", "--k", "2", "--out", out
        )
        assert code == 0
        model, report, _ = load_model(out)
        assert report.converged

    def test_large_universe_is_data_error(self, tmp_path):
        path = tmp_path / "wide.fimi"
        path.write_text("0 30\n30\n")
        code = run("fit-bm", "--input", path, "--sigma", "0.2", "--k", "1", "--out", "-")
        assert code == 3


class TestFitRbm:
    def test_hidden_and_determinism(self, worked_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = run(
                "fit-rbm",
                "--input", worked_file,
                "--hidden", "2",
                "--updates", "40",
                "--chains", "8",
                "--seed", "3",
                "--out", out,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_match_params(self, worked_file, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            "fit-rbm",
            "--input", worked_file,
            "--match-params", "23",
            "--updates", "10",
            "--out", out,
        )
        assert code == 0
        model, _, meta = load_model(out)
        assert model.n_hidden == max(1, -(-(23 - 3) // 4))

    @pytest.mark.parametrize("command", ["fit-rbm", "compare"])
    def test_huge_item_id_is_data_error(self, command, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("dense visible vector allocated")

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the RBM budget was checked")

        monkeypatch.setattr(baselines, "pattern_vector", refuse)
        monkeypatch.setattr("tbmlearn.fitting.fit_to_moments", no_fit)
        monkeypatch.setattr("tbmlearn.cli.fit_full_bm", no_fit)
        path = tmp_path / "sparse_ids.fimi"
        path.write_text("0 1000000000\n0\n1000000000\n0 1000000000\n")
        args = ["--sigma", "0.2", "--k", "1"] if command == "compare" else ["--hidden", "1"]
        code = run(command, "--input", path, *args, "--out", tmp_path / "out")
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_hidden_and_match_params_conflict(self, worked_file):
        code = run(
            "fit-rbm", "--input", worked_file, "--hidden", "2", "--match-params", "9"
        )
        assert code == 2


class TestEval:
    def test_tbm_metrics(self, worked_file, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run(
            "fit-tbm",
            "--input", worked_file,
            "--empty-transactions", "bottom",
            "--sigma", "0.45",
            "--k", "2",
            "--tol", "1e-10",
            "--out", model_path,
        )
        capsys.readouterr()
        code = run(
            "eval",
            "--model", model_path,
            "--input", worked_file,
            "--empty-transactions", "bottom",
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kl"] == pytest.approx(WORKED_KL, abs=1e-7)
        assert result["proxy_error"] == pytest.approx(WORKED_KL, abs=1e-7)
        assert result["entropy"] == pytest.approx(1.2798542258336676, abs=1e-9)
        assert result["loglik"] < 0

    def test_rbm_eval_has_null_kl(self, worked_file, tmp_path, capsys):
        model_path = tmp_path / "r.json"
        run(
            "fit-rbm",
            "--input", worked_file,
            "--hidden", "1",
            "--updates", "10",
            "--out", model_path,
        )
        capsys.readouterr()
        code = run("eval", "--model", model_path, "--input", worked_file)
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kl"] is None
        assert result["proxy_error"] >= 0

    def test_unseen_pattern_is_data_error(self, worked_file, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run(
            "fit-tbm",
            "--input", worked_file,
            "--sigma", "0.45",
            "--k", "2",
            "--out", model_path,
        )
        other = tmp_path / "other.fimi"
        other.write_text("7\n")
        capsys.readouterr()
        assert run("eval", "--model", model_path, "--input", other) == 3

    def test_outcome_dropped_from_the_face_is_data_error(self, tmp_path, capsys):
        # Item 2 occurs only with item 1, so the face drops the outcome (2,).
        data = tmp_path / "rule.fimi"
        data.write_text("1\n1 2\n1 2\n3\n1 3\n2 1 3\n")
        model_path = tmp_path / "m.json"
        assert run("fit-tbm", "--input", data, "--sigma", "0.1", "--k", "2",
                   "--out", model_path) == 0
        model, report, _ = load_model(model_path)
        assert (2,) in report.removed_parameters and (2,) not in model.space
        other = tmp_path / "other.fimi"
        other.write_text("2\n")
        capsys.readouterr()
        assert run("eval", "--model", model_path, "--input", other) == 3
        err = capsys.readouterr().err
        assert "(2,)" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda obj: obj.pop("theta"), "lacks theta"),
            (lambda obj: obj["theta"].pop(), "theta has 2 values for 3 patterns"),
            (lambda obj: obj["domain"].insert(0, 5), "domain must be a list of item lists"),
            (lambda obj: obj.update(theta={"a": 1.0}), "theta must hold numbers only"),
            (lambda obj: obj.update(fit_report=[1, 2]), "fit_report must be a JSON object"),
        ],
        ids=["theta_missing", "theta_short", "domain_entry_not_list", "theta_object",
             "fit_report_list"],
    )
    def test_malformed_model_is_data_error(
        self, worked_file, tmp_path, capsys, damage, message
    ):
        model_path = tmp_path / "m.json"
        run(
            "fit-tbm",
            "--input", worked_file,
            "--sigma", "0.45",
            "--k", "2",
            "--out", model_path,
        )
        obj = json.loads(model_path.read_text())
        damage(obj)
        model_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("eval", "--model", model_path, "--input", worked_file) == 3
        assert message in capsys.readouterr().err

    def test_model_not_an_object_is_data_error(self, worked_file, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text("[]\n")
        assert run("eval", "--model", model_path, "--input", worked_file) == 3
        assert "must be a JSON object, not list" in capsys.readouterr().err

    def test_bm_pattern_beyond_variables_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.fimi"
        data.write_text("0\n0 1\n1\n0\n")
        model_path = tmp_path / "bm.json"
        run("fit-bm", "--input", data, "--sigma", "0.2", "--k", "2", "--out", model_path)
        obj = json.loads(model_path.read_text())
        obj["domain"][0] = [9]
        model_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("eval", "--model", model_path, "--input", data) == 3
        assert "(9,) has an item outside 0..1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, named",
        [("1\n5\n\n2\n7\n", "(5,)"), ("1\n\n5\n", "()")],
        ids=["item", "bottom"],
    )
    def test_tbm_names_the_first_transaction_outside(self, tmp_path, capsys, text, named):
        # A face without bottom: the empty line read as () lies outside it too.
        space = SampleSpace.from_patterns([(1,), (2,), (1, 2)])
        model, report = fit_to_moments(space, [(1,), (2,)], [0.4, 0.2, 0.4])
        model_path = tmp_path / "m.json"
        save_model(model_path, model, report)
        data = tmp_path / "d.fimi"
        data.write_text(text)
        capsys.readouterr()
        assert run("eval", "--model", model_path, "--input", data,
                   "--empty-transactions", "bottom") == 3
        err = capsys.readouterr().err
        assert err == f"error: pattern {named} is outside the sample space\n"

    def test_bm_names_the_first_transaction_past_its_variables(self, tmp_path, capsys):
        data = tmp_path / "d.fimi"
        data.write_text("0\n0 1\n1\n0\n")
        model_path = tmp_path / "bm.json"
        assert run("fit-bm", "--input", data, "--sigma", "0.2", "--k", "2",
                   "--out", model_path) == 0
        data.write_text("0\n1 5\n3\n")
        capsys.readouterr()
        assert run("eval", "--model", model_path, "--input", data) == 3
        assert capsys.readouterr().err == "error: pattern (1, 5) exceeds 2 variables\n"

    def test_tbm_eval_builds_no_tuple_view(self, worked_file, tmp_path, monkeypatch):
        model_path = tmp_path / "m.json"
        assert run("fit-tbm", "--input", worked_file, "--empty-transactions", "bottom",
                   "--sigma", "0.3", "--k", "2", "--out", model_path) == 0
        loaded = []

        def recording(path):
            loaded.append(load_model(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_model", recording)
        assert run("eval", "--model", model_path, "--input", worked_file,
                   "--empty-transactions", "bottom", "--out", tmp_path / "eval.json") == 0
        space = loaded[0][0].space
        assert "index" not in space.__dict__ and "outcomes" not in space.__dict__

    def test_bm_repeated_item_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.fimi"
        data.write_text("0\n0 1\n1\n0\n")
        model_path = tmp_path / "bm.json"
        run("fit-bm", "--input", data, "--sigma", "0.2", "--k", "2", "--out", model_path)
        obj = json.loads(model_path.read_text())
        obj["domain"][0] = [0, 0]
        model_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("eval", "--model", model_path, "--input", data) == 3
        assert "(0, 0) is not strictly increasing" in capsys.readouterr().err


class TestFaces:
    """Models fitted on a face, and spaces without bottom, go through the
    model file and ``eval`` unchanged."""

    def test_lp_face_round_trips(self, tmp_path):
        # A boundary fit that runs the face LP: 60 of its 175 parameters
        # stay, on a face of the data's 60 transactions and bottom.
        d, _ = synth_dataset(10, 60, 3000, seed=3)
        data = tmp_path / "synth.fimi"
        data.write_text(format_fimi(d))
        model_path = tmp_path / "m.json"
        assert run("fit-tbm", "--input", data, "--sigma", "0.02", "--k", "3",
                   "--out", model_path) == 0
        fitted, report, _ = fit_tbm(parse_fimi(data.read_text()), 0.02, 3)
        assert len(fitted.domain) == 60 and len(fitted.space) == 61
        loaded, loaded_report, _ = load_model(model_path)
        assert loaded.space.outcomes == fitted.space.outcomes
        assert loaded.log_probs.tobytes() == fitted.log_probs.tobytes()
        assert loaded_report == report
        out = tmp_path / "eval.json"
        assert run("eval", "--model", model_path, "--input", data, "--out", out) == 0
        result = json.loads(out.read_text())
        evaluation = evaluate_gibbs(fitted, d)
        assert (result["kl"], result["loglik"]) == (evaluation.kl, evaluation.log_likelihood)

    def test_space_without_bottom(self, tmp_path, capsys):
        space = SampleSpace.from_patterns([(1,), (2,), (1, 2)])
        model, report = fit_to_moments(space, [(1,), (2,)], [0.4, 0.2, 0.4])
        model_path = tmp_path / "m.json"
        save_model(model_path, model, report)
        loaded, _, _ = load_model(model_path)
        assert loaded.space.outcomes == ((1,), (2,), (1, 2))
        assert loaded.log_probs.tobytes() == model.log_probs.tobytes()
        data = tmp_path / "d.fimi"
        data.write_text("1\n2\n1 2\n1 2\n1\n")
        out = tmp_path / "eval.json"
        assert run("eval", "--model", model_path, "--input", data, "--out", out) == 0
        evaluation = evaluate_gibbs(model, parse_fimi(data.read_text()))
        assert json.loads(out.read_text())["kl"] == evaluation.kl
        data.write_text("1\n\n2\n")
        capsys.readouterr()
        assert run("eval", "--model", model_path, "--input", data,
                   "--empty-transactions", "bottom") == 3
        err = capsys.readouterr().err
        assert "outside the sample space" in err and "Traceback" not in err

    def test_file_of_an_earlier_release_loads_unchanged(self, worked_file, tmp_path):
        # Written by commit eceda1a, whose spaces always appended bottom:
        # ``fit-tbm --empty-transactions bottom --sigma 0.3 --k 2 --tol 1e-9``.
        path = Path(__file__).parent / "data" / "worked_tbm_schema1.json"
        model, report, meta = load_model(path)
        assert dumps_model(model, report, meta) == path.read_text()
        out = tmp_path / "m.json"
        assert run("fit-tbm", "--input", worked_file, "--empty-transactions", "bottom",
                   "--sigma", "0.3", "--k", "2", "--tol", "1e-9", "--out", out) == 0
        assert out.read_text() == path.read_text()

    def test_eval_of_an_earlier_release_file_unchanged(self, worked_file, tmp_path):
        # The eval file of worked_tbm_schema1.json on the same data, since
        # scores became exactly rounded sums.
        data = Path(__file__).parent / "data"
        out = tmp_path / "eval.json"
        assert run("eval", "--model", data / "worked_tbm_schema1.json", "--input", worked_file,
                   "--empty-transactions", "bottom", "--out", out) == 0
        assert out.read_text() == (data / "worked_tbm_schema1_eval.json").read_text()

    @pytest.mark.parametrize("kind", ["tbm", "bm"])
    def test_eval_files_hold_exact_sums(self, kind, worked_file):
        # Each score in the eval files is the correctly rounded sum of its
        # terms; the worked model's space is the data plus bottom, which the
        # data hold, so its proxy is its divergence.
        data = Path(__file__).parent / "data"
        model, _, _ = load_model(data / f"worked_{kind}_schema1.json")
        dataset = parse_fimi(worked_file.read_text(), empty_as_bottom=True)
        scores = json.loads((data / f"worked_{kind}_schema1_eval.json").read_text())
        assert scores == exact_scores(model, dataset)
        if kind == "tbm":
            assert scores["proxy_error"] == scores["kl"] == 6.661338148784915e-17

    def test_bm_files_of_an_earlier_release_unchanged(self, worked_file, tmp_path):
        # The model written by commit d3f2918, before the model writer worked
        # on arrays: ``fit-bm --empty-transactions bottom --sigma 0.3 --k 2
        # --tol 1e-9``; then ``eval`` of that file on the same data.
        data = Path(__file__).parent / "data"
        model, report, meta = load_model(data / "worked_bm_schema1.json")
        assert dumps_model(model, report, meta) == (data / "worked_bm_schema1.json").read_text()
        out = tmp_path / "bm.json"
        assert run("fit-bm", "--input", worked_file, "--empty-transactions", "bottom",
                   "--sigma", "0.3", "--k", "2", "--tol", "1e-9", "--out", out) == 0
        assert out.read_text() == (data / "worked_bm_schema1.json").read_text()
        scored = tmp_path / "eval.json"
        assert run("eval", "--model", out, "--input", worked_file,
                   "--empty-transactions", "bottom", "--out", scored) == 0
        assert scored.read_text() == (data / "worked_bm_schema1_eval.json").read_text()


    @pytest.mark.parametrize("kind", ["tbm", "bm"])
    def test_eval_loads_no_scipy(self, kind, worked_file, tmp_path):
        # Scoring needs Z^T theta over the model's own outcomes, or the full
        # cube's sums: no sparse algebra, so eval in a fresh interpreter
        # loads no scipy module and still writes the earlier release's bytes.
        data = Path(__file__).parent / "data"
        out = tmp_path / "eval.json"
        code = (
            "import sys; from tbmlearn import cli; code = cli.main(sys.argv[1:]); "
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        argv = ["eval", "--model", data / f"worked_{kind}_schema1.json", "--input", worked_file,
                "--empty-transactions", "bottom", "--out", out]
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["0", "[]"]
        assert out.read_text() == (data / f"worked_{kind}_schema1_eval.json").read_text()


class TestBlasThreads:
    def test_eval_bytes_do_not_depend_on_threads(self, tmp_path):
        # 40k lines over 24 items give about 40k distinct transactions, enough
        # for OpenBLAS to split a dot product of their terms over threads.
        rng = np.random.default_rng(0)
        rows = rng.random((40_000, 24)) < 0.5
        data = tmp_path / "d.fimi"
        data.write_text("".join(" ".join(map(str, np.flatnonzero(r))) + "\n" for r in rows))
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def tbmlearn(*argv, threads="1"):
            env = {**os.environ, "PYTHONPATH": path,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "tbmlearn", *map(str, argv)],
                           env=env, capture_output=True, check=True)

        model = tmp_path / "m.json"
        tbmlearn("fit-tbm", "--input", data, "--sigma", "0.01", "--k", "1", "--out", model)
        outs = [tmp_path / f"eval{threads}.json" for threads in "12"]
        for threads, out in zip("12", outs):
            tbmlearn("eval", "--model", model, "--input", data, "--out", out, threads=threads)
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestSynthAndBiasvar:
    def test_synth_outputs(self, tmp_path):
        out = tmp_path / "data.fimi"
        truth = tmp_path / "truth.json"
        code = run(
            "synth",
            "--n-vars", "8",
            "--support-size", "12",
            "--n", "200",
            "--seed", "5",
            "--out", out,
            "--truth-out", truth,
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 200
        obj = json.loads(truth.read_text())
        assert len(obj["support"]) == 12
        assert obj["n_variables"] == 8

    def test_synth_deterministic(self, tmp_path):
        pairs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.fimi"
            truth = tmp_path / f"{tag}.json"
            run(
                "synth",
                "--n-vars", "6",
                "--support-size", "8",
                "--n", "100",
                "--seed", "1",
                "--out", out,
                "--truth-out", truth,
            )
            pairs.append((out.read_bytes(), truth.read_bytes()))
        assert pairs[0] == pairs[1]

    def test_biasvar_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(
            "biasvar",
            "--space-size", "25",
            "--n-vars", "10",
            "--sigma", "0.4",
            "--k", "2",
            "--n", "400",
            "--trials", "4",
            "--seed", "2",
            "--out", out,
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["trial", "kl_true_to_fit", "kl_proj_to_fit", "bound"]
        assert len(rows) == 5
        # Every cell is a plain number, not the repr of a numpy scalar.
        values = [[float(cell) for cell in row] for row in rows[1:]]
        assert [row[0] for row in values] == [0, 1, 2, 3]
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 4
        assert summary["lower_bound"] > 0

    def test_biasvar_counts_face_trials(self, tmp_path, capsys):
        # At N = 200 every trial's counts leave some of the 41 outcomes
        # empty, and its fit ends on a face: infinite divergences, and no
        # trial left for the means.
        out = tmp_path / "report.csv"
        code = run(
            "biasvar",
            "--space-size", "40",
            "--n-vars", "10",
            "--k", "2",
            "--n", "200",
            "--trials", "20",
            "--sigma", "0.05",
            "--seed", "0",
            "--out", out,
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert len(rows) == 20 and all("inf" in row[1] and "inf" in row[2] for row in rows)
        summary = json.loads(capsys.readouterr().out)
        assert summary["face_trials"] == summary["flagged_trials"] == 20
        assert math.isnan(summary["variance_mean"])

    def test_biasvar_domain_flags_must_pair(self, tmp_path):
        code = run(
            "biasvar",
            "--space-size", "25",
            "--n-vars", "10",
            "--k", "2",
            "--n", "100",
            "--trials", "3",
            "--min-domain", "5",
        )
        assert code == 3


class TestCompare:
    def test_three_method_table(self, worked_file, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run(
            "compare",
            "--input", worked_file,
            "--empty-transactions", "bottom",
            "--sigma", "0.45",
            "--k", "2",
            "--tol", "1e-9",
            "--rbm-updates", "30",
            "--out", out,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["method"] for r in rows] == ["tbm", "bm", "rbm"]
        tbm = rows[0]
        assert int(tbm["param_count"]) == 2
        assert float(tbm["proxy_error"]) == pytest.approx(WORKED_KL, abs=1e-6)
        assert all(r["status"] == "ok" for r in rows)

    def test_wide_universe_marks_bm_infeasible(self, tmp_path):
        path = tmp_path / "wide.fimi"
        lines = [f"0 {i}" for i in range(1, 40)] + ["0"] * 10
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cmp.csv"
        code = run(
            "compare",
            "--input", path,
            "--sigma", "0.2",
            "--k", "1",
            "--rbm-updates", "10",
            "--out", out,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        bm = next(r for r in rows if r["method"] == "bm")
        assert bm["status"].startswith("infeasible")
        assert bm["proxy_error"] == ""
        assert rows[0]["status"] == "ok" and rows[2]["status"] == "ok"

    def test_json_format(self, worked_file, capsys):
        code = run(
            "compare",
            "--input", worked_file,
            "--sigma", "0.45",
            "--k", "2",
            "--rbm-updates", "10",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["method"] for r in rows} == {"tbm", "bm", "rbm"}


class TestCompareGolden:
    """``compare --empty-transactions bottom --sigma 0.1 --k 2 --rbm-updates
    300`` in both formats, wall times masked: the output of commit 9946361,
    before its three learner blocks became one loop, with the proxies since
    scores became exactly rounded sums."""

    WIDE_TEXT = "".join(
        " ".join(map(str, sorted({i % 5, 5 + i % 7, 12 + i % 3, 27 + i % 2}))) + "\n"
        for i in range(60)
    )

    @staticmethod
    def masked(text: str) -> str:
        """The text with each measured wall time, a json field or the csv
        column before the status, replaced by ``T``."""
        text = re.sub(r'("wall_time_sec": )[0-9.e+-]+', r"\1T", text)
        return re.sub(r"^((?:[^,\n]*,){3})[0-9.]+,", r"\1T,", text, flags=re.M)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", ["worked", "wide"])
    def test_output_unchanged(self, name, fmt, worked_file, tmp_path):
        data = worked_file
        if name == "wide":  # 29 variables: the bm row is infeasible
            data = tmp_path / "wide.fimi"
            data.write_text(self.WIDE_TEXT)
        out = tmp_path / f"cmp.{fmt}"
        assert run("compare", "--input", data, "--empty-transactions", "bottom",
                   "--sigma", "0.1", "--k", "2", "--rbm-updates", "300",
                   "--format", fmt, "--out", out) == 0
        golden = Path(__file__).parent / "data" / f"compare_{name}.{fmt}"
        assert self.masked(out.read_text()) == self.masked(golden.read_text())

    @pytest.mark.parametrize("name", ["worked", "wide"])
    def test_proxies_are_exact_sums(self, name, worked_file, tmp_path, monkeypatch):
        data = worked_file
        if name == "wide":
            data = tmp_path / "wide.fimi"
            data.write_text(self.WIDE_TEXT)
        scored = []
        score = cli._score
        monkeypatch.setattr(cli, "_score", lambda *args: scored.append(args) or score(*args))
        assert run("compare", "--input", data, "--empty-transactions", "bottom",
                   "--sigma", "0.1", "--k", "2", "--rbm-updates", "300", "--format", "json",
                   "--out", tmp_path / "cmp.json") == 0
        golden = json.loads((Path(__file__).parent / "data" / f"compare_{name}.json").read_text())
        proxies = [row["proxy_error"] for row in golden if row["proxy_error"] is not None]
        assert proxies == [
            exact_proxy(model.free_energy if isinstance(model, RBMModel) else model.energy, d)
            for model, d in scored
        ]


class TestPlumbing:
    def test_usage_error_is_2(self, worked_file):
        assert run("mine", "--input", worked_file, "--sigma", "0.5") == 2
        assert run("mine", "--definitely-not-a-flag") == 2
        assert run("no-such-command") == 2
        # The fit is deterministic, so fit-tbm takes no seed.
        args = ("--input", worked_file, "--sigma", "0.45", "--k", "2", "--seed", "0")
        assert run("fit-tbm", *args) == 2

    @pytest.mark.parametrize("command", ["fit-tbm", "fit-bm", "compare"])
    @pytest.mark.parametrize(
        "option, value",
        [
            ("--max-iters", "-1"),
            ("--tol", "-1"),
        ],
    )
    def test_invalid_fit_option_is_usage_error(
        self, worked_file, capsys, command, option, value
    ):
        code = run(
            command, "--input", worked_file, "--sigma", "0.45", "--k", "2", option, value
        )
        assert code == 2
        assert f"argument {option}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("fit-rbm", "--updates", "-3"),
            ("fit-rbm", "--chains", "0"),
            ("fit-rbm", "--lr", "nan"),
            ("fit-rbm", "--lr", "inf"),
            ("fit-rbm", "--lr", "0"),
            ("fit-rbm", "--match-params", "-5"),
            ("fit-rbm", "--hidden", "0"),
            ("compare", "--rbm-updates", "-3"),
            ("compare", "--rbm-chains", "0"),
            ("compare", "--rbm-lr", "nan"),
        ],
    )
    def test_invalid_rbm_option_is_usage_error(
        self, worked_file, capsys, command, option, value
    ):
        if command == "compare":
            args = ("--sigma", "0.45", "--k", "2")
        else:
            args = () if option in ("--match-params", "--hidden") else ("--hidden", "2")
        code = run(command, "--input", worked_file, *args, option, value)
        assert code == 2
        assert f"argument {option}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, args, option",
        [
            ("fit-rbm", ("--hidden", "2"), "--seed"),
            ("compare", ("--sigma", "0.45", "--k", "2"), "--seed"),
            ("synth", ("--n-vars", "3", "--support-size", "2", "--n", "5"), "--seed"),
            ("biasvar", ("--space-size", "10", "--n-vars", "5", "--k", "1", "--n", "50",
                         "--trials", "2", "--sigma", "0.1"), "--seed"),
            ("mine", ("--sigma", "0.5", "--k", "1"), "--max-domain-size"),
        ],
    )
    def test_negative_seed_or_domain_cap_is_usage_error(
        self, worked_file, tmp_path, capsys, command, args, option
    ):
        if command == "synth":
            args += ("--out", tmp_path / "s.fimi", "--truth-out", tmp_path / "t.json")
        elif command != "biasvar":
            args = ("--input", worked_file) + args
        assert run(command, *args, option, "-1") == 2
        assert f"argument {option}: must be non-negative" in capsys.readouterr().err

    def test_missing_file_is_3(self):
        assert run("mine", "--input", "/nonexistent.fimi", "--sigma", "0.5", "--k", "1") == 3

    def test_malformed_file_is_3(self, tmp_path):
        path = tmp_path / "bad.fimi"
        path.write_text("1 x\n")
        assert run("mine", "--input", path, "--sigma", "0.5", "--k", "1") == 3

    def test_bad_sigma_is_3(self, worked_file):
        assert run("mine", "--input", worked_file, "--sigma", "1.5", "--k", "1") == 3

    def test_help_and_version_exit_zero(self, capsys):
        assert run("--help") == 0
        assert run("--version") == 0
        out = capsys.readouterr().out
        assert "fit-tbm" in out or "tbmlearn" in out

    def test_stdout_output(self, worked_file, capsys):
        code = run(
            "fit-tbm", "--input", worked_file, "--sigma", "0.45", "--k", "2",
            "--out", "-",
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "tbm"
