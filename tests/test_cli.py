import argparse
import json
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import fisherwatch
from fisherwatch import io
from fisherwatch.cli import build_parser, main
from fisherwatch.core import StateMatrix
from fisherwatch.detect import METHODS
from fisherwatch.simgen import Scenario, generate
from fisherwatch.validate import null_statistic_sample

SCENARIO = {
    "p": 20,
    "T": 1200,
    "events": [
        {"tau": 600, "kind": "scale-subset", "channels": [1, 2, 3, 4, 5, 6, 7, 8],
         "factor": 3.0}
    ],
    "seed": 4,
}


def load_schema(name):
    ref = resources.files("fisherwatch") / "schemas" / name
    return json.loads(ref.read_text())


def validate(doc, schema_name):
    jsonschema.validate(doc, load_schema(schema_name))


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


@pytest.fixture
def data_file(tmp_path):
    X, _ = generate(io.parse_scenario(SCENARIO))
    path = tmp_path / "data.csv"
    io.write_state_csv(path, X)
    return path


class TestSimulate:
    def test_artifacts_and_truth(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        assert main(["simulate", str(scenario_file), "--out-dir", str(out)]) == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["change_times"] == [600]
        assert (out / "data.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert set(manifest["artifacts"]) == {"data.csv", "truth.json"}

    def test_csv_round_trip_exact(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        main(["simulate", str(scenario_file), "--out-dir", str(out)])
        X = io.read_state_csv(out / "data.csv")
        ref, _ = generate(io.parse_scenario(SCENARIO))
        assert np.array_equal(X.values, ref.values)

    def test_seed_override(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(scenario_file), "--out-dir", str(out1), "--seed", "99"])
        main(["simulate", str(scenario_file), "--out-dir", str(out2)])
        a = io.read_state_csv(out1 / "data.csv")
        b = io.read_state_csv(out2 / "data.csv")
        assert not np.array_equal(a.values, b.values)

    def test_byte_identical_reruns(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["simulate", str(scenario_file), "--out-dir", str(out)])
        for name in ("data.csv", "truth.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestScreen:
    def test_report_schema_and_series(self, tmp_path, data_file):
        out = tmp_path / "out"
        assert main(["screen", str(data_file), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        validate(doc, "report.schema.json")
        assert doc["kind"] == "screen"
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "boundary_index,t_i,L_i,threshold,reject"
        assert len(series) == 1 + len(doc["boundaries"])

    def test_byte_identical_reruns(self, tmp_path, data_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["screen", str(data_file), "--out-dir", str(out)])
        for name in ("report.json", "series.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_file(self, tmp_path, data_file):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"D": 100, "alpha": 0.05}))
        out = tmp_path / "out"
        assert main(["screen", str(data_file), "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["D"] == 100
        assert doc["config"]["alpha"] == 0.05

    def test_transpose_flag(self, tmp_path, data_file):
        X = io.read_state_csv(data_file)
        tpath = tmp_path / "wide.csv"
        with open(tpath, "w") as fh:
            for t in range(X.T):
                fh.write(
                    f"{t + 1}," + ",".join(repr(float(v)) for v in X.values[:, t]) + "\n"
                )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["screen", str(data_file), "--out-dir", str(out1)])
        main(["screen", str(tpath), "--transpose", "--out-dir", str(out2)])
        d1 = json.loads((out1 / "report.json").read_text())
        d2 = json.loads((out2 / "report.json").read_text())
        assert d1["statistics"] == d2["statistics"]


class TestDetect:
    def test_detect_report_and_traces(self, tmp_path, data_file):
        out = tmp_path / "out"
        code = main(["detect", str(data_file), "--method", "deht", "--true-tau", "600",
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        validate(doc, "report.schema.json")
        assert doc["kind"] == "detect"
        assert doc["method"] == "deht"
        for det in doc["detections"]:
            assert det["delay_samples"] == det["fault_time"] - 600
        traces = (out / "traces.csv").read_text().splitlines()
        assert traces[0] == "interval_id,k,value,threshold,flag"

    def test_default_method_is_dele(self, tmp_path, data_file):
        out = tmp_path / "out"
        main(["detect", str(data_file), "--out-dir", str(out)])
        doc = json.loads((out / "report.json").read_text())
        assert doc["method"] == "dele"


class TestValidateNull:
    def test_calibration_schema(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "validate-null", "--reps", "150", "--p", "16", "--n1", "64", "--n2", "64",
            "--esd-p", "32", "--esd-n", "128", "--out-dir", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "calibration.json").read_text())
        validate(doc, "calibration.schema.json")
        assert doc["reps"] == 150
        assert doc["seed"] == 12345
        assert 0.0 <= doc["empirical_size"] <= 1.0

    @pytest.mark.parametrize("clt", [{"beta1": 1.5}, {"beta1": 1.5, "beta2": 1.5}])
    def test_config_sets_the_clt_constants(self, tmp_path, clt):
        argv = ["validate-null", "--reps", "100", "--p", "16", "--n1", "48", "--n2", "48",
                "--esd-p", "8", "--esd-n", "32"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(clt))
        docs = []
        for name, extra in (("default", []), ("config", ["--config", str(config)])):
            assert main([*argv, *extra, "--out-dir", str(tmp_path / name)]) == 0
            docs.append(json.loads((tmp_path / name / "calibration.json").read_text()))
        Ls = null_statistic_sample(16, 48, 48, 100, seed=12345, **clt)
        assert docs[0]["statistic_mean"] != docs[1]["statistic_mean"]
        assert docs[1]["statistic_mean"] == float(Ls.mean())
        assert docs[1]["statistic_sd"] == float(Ls.std(ddof=1))

    def test_too_few_reps(self, tmp_path, capsys):
        code = main(["validate-null", "--reps", "10", "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config-error:")


class TestWorkerCount:
    def test_report_does_not_name_the_worker_count(self, tmp_path, data_file):
        out = tmp_path / "out"
        assert main(["detect", str(data_file), "--out-dir", str(out)]) == 0
        assert "workers" not in (out / "report.json").read_text()


class TestReportSchema:
    def test_refuses_a_report_without_a_field_it_always_has(self, tmp_path, data_file):
        docs = {}
        for command in ("screen", "detect"):
            assert main([command, str(data_file), "--out-dir", str(tmp_path / command)]) == 0
            docs[command] = json.loads((tmp_path / command / "report.json").read_text())
        docs["detect"]["detections"] = [{"interval": [1, 100], "fault_time": 50,
                                         "detector": "dele", "trigger_window": 10,
                                         "delay_samples": None}]
        for doc in docs.values():
            validate(doc, "report.schema.json")
        broken = [
            ("screen", lambda doc: doc.update(threshold=None)),
            ("screen", lambda doc: doc.pop("threshold")),
            ("screen", lambda doc: doc.pop("raw_intervals")),
            ("screen", lambda doc: doc["config"].pop("D")),
            ("detect", lambda doc: doc["config"].pop("profile")),
            ("detect", lambda doc: doc["detections"][0].pop("trigger_window")),
            ("detect", lambda doc: doc["detections"][0].pop("delay_samples")),
        ]
        for i, (kind, breaks) in enumerate(broken):
            doc = json.loads(json.dumps(docs[kind]))
            breaks(doc)
            with pytest.raises(jsonschema.ValidationError):
                validate(doc, "report.schema.json")
                pytest.fail(f"case {i} was accepted")


@pytest.mark.parametrize("command", ["simulate", "screen", "detect", "validate-null"])
def test_manifest_lists_exactly_the_files_written(tmp_path, scenario_file, data_file, command):
    argv = {
        "simulate": ["simulate", str(scenario_file)],
        "screen": ["screen", str(data_file)],
        "detect": ["detect", str(data_file)],
        "validate-null": ["validate-null", "--reps", "100", "--p", "10", "--n1", "30",
                          "--n2", "30", "--esd-p", "10", "--esd-n", "40"],
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == command
    assert sorted(f.name for f in out.iterdir()) == sorted([*manifest["artifacts"],
                                                            "manifest.json"])
    for name, digest in manifest["artifacts"].items():
        assert io.sha256_of(out / name) == digest, name
    if command in ("screen", "detect"):
        report = json.loads((out / "report.json").read_text())
        assert manifest["config"] == report["config"]


def test_readme_usage_shows_exactly_the_parser_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = set(re.findall(r"^fisherwatch ([\w-]+)", usage, flags=re.MULTILINE))
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert shown == set(sub.choices)


def test_readme_library_example_prints_a_detection(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each detection prints its fault time and delay
    assert any(re.fullmatch(r"\d+ -?\d+", line) for line in printed), printed

class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["screen", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.rstrip().count("\n") == 0  # one-line reason

    def test_empty_input_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(["screen", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("data-error:")

    def test_malformed_scenario(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"p": 4}))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("scenario-error:")

    def test_scenario_not_an_object(self, tmp_path, capsys):
        # each used to end in an AttributeError traceback
        path = tmp_path / "scenario.json"
        for doc, what, got in (([1, 2], "scenario", "list"),
                               ({"p": 3, "T": 50, "base_cov": "identity"}, "base_cov", "str")):
            path.write_text(json.dumps(doc))
            code = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"scenario-error: {what} must be a JSON object, got {got}\n"

    @pytest.mark.parametrize("doc, why", [
        ({"p": 4, "T": 100, "evnets": []}, "unknown scenario keys: ['evnets']"),
        ({"p": 4, "T": 100, "events": [
            {"tau": 10, "kind": "scale-subset", "channels": [1], "factor": 2.0},
            {"tau": 50, "kind": "scale-subset", "chanels": [1], "factor": 2.0}]},
         "unknown event 2 keys: ['chanels']"),
        ({"p": 4, "T": 100, "base_cov": {"kind": "toeplitz", "rh0": 0.8}},
         "unknown base_cov keys: ['rh0']"),
    ], ids=["scenario", "event", "base-cov"])
    def test_misspelled_scenario_key(self, tmp_path, capsys, doc, why):
        # each used to be ignored: no events, a no-op event, rho = 0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"scenario-error: {why}\n"
        assert not (tmp_path / "out").exists()

    def test_scenario_event_of_wrong_size(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"p": 4, "T": 100, "events": [
            {"tau": 10, "kind": "full-replace", "matrix": [[2.0, 0.0], [0.0, 2.0]]},
        ]}))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario-error: event 1 (full-replace): matrix")
        assert err.rstrip().count("\n") == 0

    def test_infinite_base_covariance(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"p": 2, "T": 100, "base_cov": {"kind": "matrix", '
                        '"matrix": [[1, 0], [0, 1e400]]}}')
        code = main(["simulate", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "scenario-error: base_cov.matrix must be finite\n"

    @pytest.mark.parametrize("doc, field", [
        ({"p": 2, "T": 100, "events": [
            {"tau": 10, "kind": "scale-subset", "channels": [1], "factor": 2.0},
            {"tau": 20, "kind": "full-replace", "matrix": [[1, 0], [0]]}]},
         "event 2 (full-replace): matrix"),
        ({"p": 2, "T": 100, "base_cov": {"kind": "matrix", "matrix": [[1, 0], [0]]}},
         "base_cov.matrix"),
    ], ids=["event", "base-cov"])
    def test_ragged_scenario_matrix(self, tmp_path, capsys, doc, field):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"scenario-error: {field} must be a rectangular array of numbers\n"

    @pytest.mark.parametrize("doc, why", [
        ({"p": 4.9, "T": 100}, "p=4.9"),
        ({"p": 4, "T": "100"}, "T='100'"),
        ({"p": 4, "T": 100, "seed": 2.7}, "seed=2.7"),
        ({"p": 4, "T": 100, "events": [
            {"tau": 50.9, "kind": "scale-subset", "channels": [1], "factor": 2.0}]},
         "event 1: tau=50.9"),
        ({"p": 4, "T": 100, "events": [
            {"tau": 50, "kind": "scale-subset", "channels": [1], "factor": 2.0, "end": 60.5}]},
         "event 1: end=60.5"),
        ({"p": 4, "T": 100, "events": [
            {"tau": 50, "kind": "scale-subset", "channels": [1.8, 2], "factor": 2.0}]},
         "event 1: channels=1.8"),
    ], ids=["p", "T", "seed", "tau", "end", "channels"])
    def test_scenario_integer_field(self, tmp_path, capsys, doc, why):
        # each used to be truncated, or read from its string
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"scenario-error: {why} must be an integer\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("command", ["simulate", "screen", "detect", "validate-null"])
    def test_unusable_out_dir(self, tmp_path, capsys, scenario_file, data_file, command,
                              below):
        # each used to end in a FileExistsError or NotADirectoryError traceback
        argv = {
            "simulate": [str(scenario_file)],
            "validate-null": ["--reps", "100", "--p", "4", "--n1", "10", "--n2", "10",
                              "--esd-p", "3", "--esd-n", "10"],
        }.get(command, [str(data_file)])
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "out" if below else taken
        assert main([command, *argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input-error: ") and err.count("\n") == 1, err
        assert taken.read_text() == "kept\n"

    def test_shape_error_exit_three(self, tmp_path, capsys):
        # record far too short for any segmentation
        path = tmp_path / "short.csv"
        path.write_text("ch1,1.0,2.0,3.0\nch2,4.0,5.0,6.0\n")
        code = main(["screen", str(path), "--out-dir", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("record-too-short:")

    def test_bad_config_value(self, tmp_path, data_file, capsys):
        # out of bounds, of the wrong type (an integral float counts), or not an object
        bad = [{"alpha": 7.0}, {"D": 60.5}, {"d1": 30.0}, {"s": "16"}, {"s": 8.9},
               {"kappa": 2.7}, {"alpha": None}, {"alpha": "0.01"}, {"profile": ["x"]},
               {"D": True}, {"beta1": float("nan")}, {"kappa": 1}, 5]
        cfg = tmp_path / "config.json"
        for doc in bad:
            cfg.write_text(json.dumps(doc))
            for command in ("screen", "detect"):
                code = main([command, str(data_file), "--config", str(cfg),
                             "--out-dir", str(tmp_path / "out")])
                err = capsys.readouterr().err
                assert code == 2, (command, doc, err)
                assert err.startswith("config-error:"), (command, doc, err)
                assert err.rstrip().count("\n") == 0, (command, doc, err)

    def test_null_config_value(self, tmp_path, data_file, capsys):
        # null leaves a window field unset, and is a wrong type for any other field
        cfg = tmp_path / "config.json"
        reports = []
        for doc in ({}, {"D": None, "d1": None, "d2": None, "s": None}):
            cfg.write_text(json.dumps(doc))
            out = tmp_path / f"out{len(reports)}"
            assert main(["screen", str(data_file), "--config", str(cfg),
                         "--out-dir", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        for name in ("alpha", "beta1", "beta2", "kappa", "profile"):
            cfg.write_text(json.dumps({name: None}))
            code = main(["screen", str(data_file), "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, (name, err)
            assert err.startswith("config-error:"), (name, err)

    def test_bad_sample_sizes(self, tmp_path, capsys):
        # each used to end in a traceback or in an error that named no flag
        bad = [
            (["validate-null", "--p", "0"], "--p"),
            (["validate-null", "--p", "1"], "--p"),
            (["validate-null", "--n1", "1"], "--n1"),
            (["validate-null", "--n2", "1"], "--n2"),
            (["validate-null", "--p", "20", "--n2", "5"], "--n2"),
            (["validate-null", "--p", "20", "--n2", "21"], "--n2"),
            (["validate-null", "--esd-p", "0"], "--esd-p"),
            (["validate-null", "--esd-n", "1"], "--esd-n"),
            (["validate-null", "--esd-p", "3", "--esd-n", "4"], "--esd-n"),
            (["validate-null", "--seed", "-1"], "--seed"),
        ]
        for argv, flag in bad:
            code = main([*argv, "--out-dir", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, (argv, err)
            assert err.startswith("config-error:"), (argv, err)
            assert flag in err, (argv, err)
            assert err.rstrip().count("\n") == 0, (argv, err)

    def test_singular_covariance_names_its_own_setting(self, tmp_path, capsys):
        # channel 5 stuck at 0.25 on samples 1031-1180 leaves the earlier
        # segment of boundary 19 (width D) singular
        X = generate(Scenario(p=20, T=2000, seed=3))[0]
        values = X.values.copy()
        values[4, 1030:1180] = 0.25
        path = tmp_path / "stuck.csv"
        io.write_state_csv(path, StateMatrix(values=values, channel_ids=X.channel_ids))
        runs = [
            (["screen", str(path)], "(boundary 19 at sample 1140); increase D"),
            (["validate-null", "--esd-p", "3", "--esd-n", "2"], "; increase --esd-n"),
        ]
        for argv, ending in runs:
            code = main([*argv, "--out-dir", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, (argv, err)
            assert err.startswith("singular-covariance:"), (argv, err)
            assert err.rstrip().endswith(ending), (argv, err)


def test_cli_import_leaves_out_scipy_stats_and_integrate():
    """No command uses them: lsd_cdf is closed form and the KS distances are
    computed in validate, so importing the CLI must not load them either."""
    src = Path(fisherwatch.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fisherwatch.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def modules_after(*argvs, prefixes=("scipy",)):
    """Modules named under ``prefixes`` loaded in a fresh interpreter after
    importing the CLI, then after each of ``argvs`` in turn: one sorted
    list per stage."""
    src = Path(fisherwatch.__file__).resolve().parents[1]
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import fisherwatch.cli\n"
        "prefixes = tuple(json.loads(sys.argv[3]))\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
        "stages = [loaded()]\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    assert fisherwatch.cli.main(argv) == 0, argv\n"
        "    stages.append(loaded())\n"
        "print(json.dumps(stages))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src), json.dumps(argvs), json.dumps(prefixes)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_cli_import_simulate_and_screen_load_no_scipy(tmp_path, scenario_file):
    # nor the process pool that only a scan batch uses
    data = tmp_path / "sim" / "data.csv"
    stages = modules_after(
        ["simulate", str(scenario_file), "--out-dir", str(data.parent)],
        ["screen", str(data), "--out-dir", str(tmp_path / "screen")],
        prefixes=("scipy", "multiprocessing", "concurrent"),
    )
    assert stages == [[], [], []]


#: the scipy modules an engine loads: its compiled BLAS and LAPACK wrappers
SCIPY_BLAS_LAPACK = ["scipy.linalg._fblas", "scipy.linalg._flapack"]


def test_validate_null_loads_no_scipy_stats_integrate_or_special(tmp_path):
    argv = ["validate-null", "--reps", "100", "--p", "10", "--n1", "30", "--n2", "30",
            "--esd-p", "10", "--esd-n", "40", "--out-dir", str(tmp_path)]
    assert modules_after(argv)[-1] == SCIPY_BLAS_LAPACK


@pytest.mark.parametrize("method", METHODS)
def test_detect_loads_only_scipy_blas_and_lapack(tmp_path, data_file, method):
    argv = ["detect", str(data_file), "--method", method, "--out-dir", str(tmp_path)]
    assert modules_after(argv)[-1] == SCIPY_BLAS_LAPACK
