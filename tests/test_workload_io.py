"""Tests for task-set file I/O and the CLI generate/compare workflow."""

import json

import pytest

from repro.cli import main
from repro.workload.generator import generate_task_set
from repro.workload.io import (
    load_task_set,
    save_task_set,
    task_set_from_dict,
    task_set_to_dict,
)
from repro.workload.spec import TaskSpec


class TestRoundTrip:
    def test_dict_round_trip(self):
        specs = [TaskSpec(100, 1000, name="a", cache_delay=7),
                 TaskSpec(200, 2000, name="b", deadline=1500)]
        data = task_set_to_dict(specs)
        assert data["quantum"] == 1000
        back = task_set_from_dict(data)
        assert back == specs

    def test_file_round_trip(self, tmp_path):
        specs = generate_task_set(15, 4.0, seed=3)
        path = tmp_path / "set.json"
        save_task_set(path, specs)
        assert load_task_set(path) == specs

    def test_json_is_pretty_and_stable(self, tmp_path):
        specs = [TaskSpec(1, 2, name="x")]
        path = tmp_path / "s.json"
        save_task_set(path, specs)
        text = path.read_text()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["tasks"][0]["name"] == "x"
        assert parsed["tasks"][0]["deadline"] is None

    def test_json_is_canonical(self, tmp_path):
        # Sorted keys and indent 2, whatever order the dict was built in.
        path = tmp_path / "s.json"
        save_task_set(path, generate_task_set(5, 2.0, seed=3))
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


class TestErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_task_set(path)

    def test_missing_tasks_key(self):
        with pytest.raises(ValueError, match="'tasks'"):
            task_set_from_dict({"quantum": 1000})

    def test_tasks_not_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            task_set_from_dict({"tasks": {}})

    def test_task_not_object(self):
        with pytest.raises(ValueError, match="#0"):
            task_set_from_dict({"tasks": [42]})

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="#0.*integers"):
            task_set_from_dict({"tasks": [{"name": "x"}]})

    def test_invalid_spec_values(self):
        with pytest.raises(ValueError, match="#0"):
            task_set_from_dict(
                {"tasks": [{"execution": 10, "period": 5}]})

    def test_default_names_assigned(self):
        specs = task_set_from_dict(
            {"tasks": [{"execution": 1, "period": 5}]})
        assert specs[0].name == "T0"


class TestCLIWorkflow:
    def test_generate_then_compare(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["generate", str(out), "--tasks", "12",
                     "--utilization", "3", "--seed", "5"]) == 0
        assert out.exists()
        assert main(["compare", "--file", str(out)]) == 0
        text = capsys.readouterr().out
        assert "12 tasks, raw utilization 3.000" in text

    def test_compare_requires_input(self, capsys):
        assert main(["compare"]) == 2
        assert "give weights or --file" in capsys.readouterr().err

    def test_campaign_workers_flag(self, capsys):
        assert main(["fig3", "--tasks", "10", "--points", "2",
                     "--sets", "2", "-j", "2"]) == 0
        assert "M Pfair" in capsys.readouterr().out


class TestParallelCampaign:
    def test_parallel_matches_serial(self):
        from repro.campaign import run_schedulability_campaign

        serial = run_schedulability_campaign(
            20, [2.0, 4.0], sets_per_point=6, seed=9)
        parallel = run_schedulability_campaign(
            20, [2.0, 4.0], sets_per_point=6, seed=9, workers=2)
        for a, b in zip(serial, parallel):
            assert a.m_pd2.mean == b.m_pd2.mean
            assert a.m_ff.mean == b.m_ff.mean
            assert a.loss_pfair.mean == b.loss_pfair.mean
