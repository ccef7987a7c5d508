import csv
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from fisherwatch import io
from fisherwatch.core import DetectionConfig, DetectionRecord, StateMatrix, validate_config
from fisherwatch.detect import localize
from fisherwatch.errors import ConfigError, DataError, ScenarioError
from fisherwatch.screening import screen
from fisherwatch.simgen import CovarianceEvent, Scenario, generate


@pytest.fixture
def state(tmp_path):
    X, _ = generate(Scenario(p=4, T=50, seed=1))
    return X


class TestStateCsv:
    def test_round_trip_exact(self, tmp_path, state):
        path = tmp_path / "data.csv"
        io.write_state_csv(path, state)
        back = io.read_state_csv(path)
        assert np.array_equal(back.values, state.values)
        assert back.channel_ids == state.channel_ids

    def test_round_trip_without_header(self, tmp_path, state):
        path = tmp_path / "data.csv"
        io.write_state_csv(path, state)
        path.write_bytes(path.read_bytes().split(b"\r\n", 1)[1])
        back = io.read_state_csv(path)
        assert np.array_equal(back.values, state.values)

    def test_transpose(self, tmp_path, state):
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            fh.write("sample," + ",".join(state.channel_ids) + "\n")
            for t in range(state.T):
                fh.write(
                    f"{t + 1}," + ",".join(repr(float(v)) for v in state.values[:, t]) + "\n"
                )
        back = io.read_state_csv(path, transpose=True)
        assert np.array_equal(back.values, state.values)

    def test_utf8_bom_is_not_a_channel(self, tmp_path):
        # a "CSV UTF-8" export starts with a BOM; the header must stay a header
        X = StateMatrix(values=np.arange(15.0).reshape(3, 5), channel_ids=("Zürich", "b", "c"))
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        io.write_state_csv(plain, X)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, bom):
            back = io.read_state_csv(path)
            assert back.channel_ids == X.channel_ids
            assert np.array_equal(back.values, X.values)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("Z\xfcrich,1.0,2.0\nb,3.0,4.0\n".encode("latin-1"))
        with pytest.raises(DataError):
            io.read_state_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            io.read_state_csv(path)

    def test_non_numeric_body(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ch1,1.0,2.0\nch2,apple,3.0\n")
        with pytest.raises(DataError):
            io.read_state_csv(path)

    def test_write_bytes_exact(self, tmp_path):
        X = StateMatrix(values=[[1.0, -0.0, 5e-324], [0.1, 1e16, 2.5]], channel_ids=("a,b", "c"))
        path = tmp_path / "out.csv"
        io.write_state_csv(path, X)
        assert path.read_bytes() == (
            b'channel,1,2,3\r\n"a,b",1.0,-0.0,5e-324\r\nc,0.1,1e+16,2.5\r\n'
        )

    def test_ids_quoted_as_csv_writer_quotes_them(self, tmp_path):
        ids = ('say "hi"', "a,b", "line\nbreak", "", "plain")
        values = np.arange(15.0).reshape(5, 3) / 7
        path = tmp_path / "out.csv"
        io.write_state_csv(path, StateMatrix(values=values, channel_ids=ids))
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["channel", "1", "2", "3"])
            for cid, row in zip(ids, values):
                w.writerow([cid, *map(repr, row.tolist())])
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def read_text_csv(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    return io.read_state_csv(path)


class TestReaderEdgeCases:
    """Behaviour of the CSV reader on inputs a hand-made export may contain."""

    def test_quoted_id_with_comma(self, tmp_path):
        X = read_text_csv(tmp_path, '"bus 1, phase A",1.5,2\n"bus 2, phase B",3,-4\n')
        assert X.channel_ids == ("bus 1, phase A", "bus 2, phase B")
        assert X.values.tolist() == [[1.5, 2.0], [3.0, -4.0]]

    @pytest.mark.parametrize("label", ["", "channel", " Channel "])
    def test_labelled_header_dropped(self, tmp_path, label):
        X = read_text_csv(tmp_path, f"{label},1,2,3\nch1,1,2,3\nch2,4,5,6\n")
        assert X.channel_ids == ("ch1", "ch2")
        assert X.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="not a numeric channel-per-row CSV"):
            read_text_csv(tmp_path, "channel,1,2,3\n")

    def test_blank_lines_between_rows(self, tmp_path):
        X = read_text_csv(tmp_path, "\nch1,1,2\n\n\nch2,3,4\n\n")
        assert X.channel_ids == ("ch1", "ch2")
        assert X.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_blank_lines_only(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            read_text_csv(tmp_path, "\n\n\n")

    def test_row_with_only_an_id(self, tmp_path):
        with pytest.raises(DataError, match="not a numeric channel-per-row CSV"):
            read_text_csv(tmp_path, "ch1,1,2\nch2\nch3,5,6\n")

    def test_first_row_with_only_an_id_is_a_header(self, tmp_path):
        X = read_text_csv(tmp_path, "ch0\nch1,1,2\nch2,3,4\n")
        assert X.channel_ids == ("ch1", "ch2")

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataError, match="ragged or non-numeric rows"):
            read_text_csv(tmp_path, "ch1,1,2,3\nch2,4,5\n")

    def test_whitespace_padded_cells(self, tmp_path):
        X = read_text_csv(tmp_path, "ch1, 1.5 ,\t2\n ch2 ,3 , 4e0\n")
        assert X.channel_ids == ("ch1", " ch2 ")
        assert X.values.tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_exact_float_round_trip(self, tmp_path):
        cells = ["-0.0", "5e-324", "1.7976931348623157e308",
                 "0.10000000000000001", "1.2345678901234567e-07", "-9.8765432109876543e+20"]
        X = read_text_csv(tmp_path, f"a,{','.join(cells)}\nb,{','.join(reversed(cells))}\n")
        expected = np.array([[float(c) for c in cells], [float(c) for c in reversed(cells)]])
        assert X.values.tobytes() == expected.tobytes()
        assert np.signbit(X.values[0, 0]) and X.values[0, 1] == 5e-324
        path = tmp_path / "out.csv"
        io.write_state_csv(path, X)
        assert io.read_state_csv(path).values.tobytes() == expected.tobytes()


class TestConfigJson:
    def test_parse_round_trip(self):
        cfg = io.parse_config({"D": 100, "alpha": 0.05, "profile": "transmission"})
        assert cfg.D == 100
        assert cfg.alpha == 0.05
        assert cfg.profile == "transmission"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            io.parse_config({"window": 5})

    def test_echo_after_validation(self):
        cfg = validate_config(io.parse_config({}), 40)
        assert asdict(cfg) == {
            "D": 120, "d1": 30, "d2": 50, "s": 16,
            "alpha": 0.01, "kappa": 2, "beta1": 0.0, "beta2": 0.0,
            "profile": "distribution",
        }

    def test_load_json_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            io.load_json(tmp_path / "nope.json")

    def test_load_json_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError):
            io.load_json(path)


class TestScenarioJson:
    def test_full_scenario(self):
        sc = io.parse_scenario(
            {
                "p": 6,
                "T": 500,
                "base_cov": {"kind": "toeplitz", "rho": 0.4},
                "events": [
                    {"tau": 100, "kind": "scale-subset", "channels": [1, 2], "factor": 2.5},
                    {"tau": 200, "kind": "spike", "direction": [1, 0, 0, 0, 0, 0],
                     "strength": 3.0, "end": 400},
                ],
                "seed": 5,
            }
        )
        assert sc.base_cov_kind == "toeplitz"
        assert sc.base_cov_params == {"rho": 0.4}
        assert sc.events[0].channels == (1, 2)
        assert sc.events[1].end == 400

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError):
            io.parse_scenario({"T": 100})

    def test_bad_event_payload(self):
        with pytest.raises(ScenarioError):
            io.parse_scenario({"p": 4, "T": 100, "events": [{"kind": "spike"}]})


class TestReportsAndManifest:
    def test_screen_report_fields(self):
        X, _ = generate(Scenario(p=20, T=600, seed=2))
        cfg = validate_config(DetectionConfig(), 20)
        result = screen(X, cfg)
        doc = io.screen_report(result)
        assert doc["kind"] == "screen"
        assert doc["schema_version"] == io.SCHEMA_VERSION
        assert set(doc) == {"schema_version", "kind", "config", "boundaries", "statistics",
                            "threshold", "rejections", "raw_intervals", "merged_intervals"}
        assert len(doc["statistics"]) == len(doc["boundaries"])
        assert isinstance(doc["threshold"], float)
        assert all(type(v) is bool for v in doc["rejections"])
        assert doc["config"] == asdict(cfg)

    def test_detect_report_fields(self):
        X, _ = generate(Scenario(p=20, T=1200, seed=0, events=(
            CovarianceEvent(tau=600, kind="scale-subset", channels=tuple(range(1, 9)),
                            factor=5.0),)))
        report = localize(X, DetectionConfig(), method="deht", true_tau=600)
        doc = io.detect_report(report, "deht")
        assert set(doc) == {"schema_version", "kind", "method", "screened_intervals",
                            "detections", "config"}
        assert (doc["kind"], doc["method"]) == ("detect", "deht")
        assert doc["detections"]
        # every DetectionRecord field is published: a new one fails here
        # until it is added to this set on purpose
        keys = {"interval", "fault_time", "detector", "trigger_window", "delay_samples"}
        assert {f.name for f in fields(DetectionRecord)} == keys
        assert all(set(det) == keys for det in doc["detections"])
        # tuples are written as the same JSON lists
        assert json.loads(json.dumps(doc))["screened_intervals"] == [
            list(iv) for iv in report.screened_intervals
        ]

    def test_write_json_bytes_deterministic(self, tmp_path):
        doc = {"b": 1, "a": [1, 2], "c": {"z": 0, "y": 1}}
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        io.write_json(p1, doc)
        io.write_json(p2, dict(reversed(doc.items())))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")

    def test_manifest_checksums(self, tmp_path):
        art = tmp_path / "report.json"
        io.write_json(art, {"x": 1})
        path = io.write_manifest(tmp_path, "screen", [], [art], seed=3)
        doc = json.loads(path.read_text())
        assert doc["subcommand"] == "screen"
        assert doc["seed"] == 3
        assert doc["artifacts"]["report.json"] == io.sha256_of(art)
