import json

import numpy as np
import pytest

from holosphere.cli import _write_json, main
from holosphere.config import demo_config, validate_config
from holosphere.errors import ConfigError


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigValidation:
    def test_demo_roundtrip(self):
        for n in (1, 2, 3):
            cfg = validate_config(demo_config(n))
            assert cfg.n == n
            assert len(cfg.betas) == n

    def test_demo_out_of_range(self):
        with pytest.raises(ConfigError):
            demo_config(5)

    def test_betas_length_named(self):
        doc = demo_config(1)
        doc["betas"] = ["1", "1"]
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "$.betas" in str(err.value)

    def test_grid_too_small(self):
        doc = demo_config(1)
        doc["grid"] = {"rows": 1, "cols": 1}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "$.grid" in str(err.value)

    def test_constants_shape_named(self):
        doc = demo_config(2)
        doc["integration_constants"] = [[[0.0, 0.0]], [[0.0, 0.0]]]
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "$.integration_constants[1]" in str(err.value)

    def test_bad_expression_offset(self):
        doc = demo_config(1)
        doc["betas"] = ["z+"]
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "$.betas[0]" in str(err.value)

    def test_unknown_tolerance_family(self):
        doc = demo_config(1)
        doc["tolerances"] = {"nonsense": 1.0}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "$.tolerances.nonsense" in str(err.value)

    def test_reconstruction_cap(self):
        doc = demo_config(3)
        doc["n"] = 4
        doc["betas"] = ["1"] * 4
        doc["integration_constants"] = [
            [[0.0, 0.0]] * (2 * r + 1) for r in range(4)
        ]
        doc.pop("ruled")
        doc.pop("kaehler")
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "unsupported n for reconstruction" in str(err.value)

    def test_obj_components_range(self):
        doc = demo_config(1)
        doc["output"] = {"obj_components": [1, 2, 9]}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "$.output.obj_components[2]" in str(err.value)

    def test_disk_domain(self, tmp_path):
        doc = demo_config(1)
        doc["domain"] = {"shape": "disk", "center": [0.0, 0.0],
                         "radius": 1.0, "base_point": [0.0, 0.0]}
        doc["grid"] = {"rows": 6, "cols": 6}
        cfg = _write(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["generate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = (out / "surface.csv").read_text().splitlines()[1:]
        outside = [r for r in rows if r.split(",")[2] == "0"]
        assert outside, "disk grid must mask bounding-box corners"


class TestGenerate:
    def test_demo_n1(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["generate", "--seed-demo", "1", "--out", str(out)])
        assert code == 0
        for name in ("config.json", "surface.csv", "surface.obj",
                     "diagnostics.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout and "[FAIL]" not in stdout
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["passed"] is True

    def test_obj_is_well_formed(self, tmp_path):
        out = tmp_path / "run"
        main(["generate", "--seed-demo", "1", "--out", str(out), "--quiet"])
        lines = (out / "surface.obj").read_text().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(verts) == 100
        assert len(faces) == 81
        for f in faces:
            ids = [int(tok) for tok in f.split()[1:]]
            assert all(1 <= i <= len(verts) for i in ids)

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["generate", "--seed-demo", "2", "--out", str(out_a), "--quiet"])
        main(["generate", "--seed-demo", "2", "--out", str(out_b), "--quiet"])
        for name in ("surface.csv", "surface.obj", "diagnostics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_ply_output(self, tmp_path):
        doc = demo_config(1)
        doc["output"]["formats"] = ["ply"]
        cfg = _write(tmp_path, doc)
        out = tmp_path / "run"
        code = main(["generate", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == 0
        text = (out / "surface.ply").read_text()
        assert text.startswith("ply\nformat ascii 1.0")
        assert "property double residual" in text


class TestVerify:
    def test_pass_path(self, tmp_path):
        out = tmp_path / "run"
        assert main(["verify", "--seed-demo", "2", "--out", str(out),
                     "--quiet"]) == 0

    def test_fault_injection_fails(self, tmp_path, capsys):
        doc = demo_config(1)
        doc["perturb"] = {"target": "F2", "magnitude": 1e-3}
        cfg = _write(tmp_path, doc)
        out = tmp_path / "run"
        code = main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 2
        stdout = capsys.readouterr().out
        assert "[FAIL] hermitian_orthogonality" in stdout
        assert "worst at z=" in stdout
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["status"]["hermitian_orthogonality"] == "FAIL"


class TestReconstruct:
    def test_demo_n1(self, tmp_path):
        out = tmp_path / "run"
        code = main(["reconstruct", "--seed-demo", "1", "--out", str(out),
                     "--quiet"])
        assert code == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["passed"] is True
        assert report["sup_distance"] <= 1e-3

    def test_unsupported_depth(self, tmp_path, capsys):
        doc = demo_config(3)
        doc["n"] = 4
        doc["betas"] = ["1"] * 4
        doc["integration_constants"] = [
            [[0.0, 0.0]] * (2 * r + 1) for r in range(4)
        ]
        for block in ("ruled", "kaehler", "reconstruct"):
            doc.pop(block, None)
        cfg = _write(tmp_path, doc)
        code = main(["reconstruct", "--config", cfg, "--out",
                     str(tmp_path / "run")])
        assert code == 1
        assert "unsupported n" in capsys.readouterr().err


class TestKaehlerAndRuled:
    def test_kaehler_demo(self, tmp_path):
        out = tmp_path / "run"
        code = main(["kaehler", "--seed-demo", "2", "--out", str(out),
                     "--quiet"])
        assert code == 0
        report = json.loads((out / "kaehler_report.json").read_text())
        assert report["passed"] is True
        assert report["fraction_regular"] >= 0.95
        assert (out / "kaehler.obj").exists()

    def test_ruled_demo(self, tmp_path):
        out = tmp_path / "run"
        code = main(["ruled", "--seed-demo", "3", "--out", str(out),
                     "--quiet"])
        assert code == 0
        report = json.loads((out / "ruled_report.json").read_text())
        assert report["passed"] is True
        assert report["max_norm_deviation"] <= 1e-12

    def test_ruled_needs_depth_three(self, tmp_path, capsys):
        code = main(["ruled", "--seed-demo", "2", "--out",
                     str(tmp_path / "run")])
        assert code == 1
        assert "requires n >= 3" in capsys.readouterr().err


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["verify", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["verify", "--config", str(bad), "--out",
                     str(tmp_path / "run")])
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_needs_config_or_demo(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path / "run")])
        assert code == 1

    def test_mutually_exclusive_sources(self, tmp_path, capsys):
        code = main(["verify", "--config", "x.json", "--seed-demo", "1",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    def test_betas_mismatch_exit_code(self, tmp_path, capsys):
        doc = demo_config(1)
        doc["betas"] = ["1", "z"]
        cfg = _write(tmp_path, doc)
        code = main(["verify", "--config", cfg, "--out",
                     str(tmp_path / "run")])
        assert code == 1
        assert "$.betas" in capsys.readouterr().err


def test_reports_are_strict_json(tmp_path):
    path = tmp_path / "report.json"
    _write_json(path, {"a": float("nan"), "b": [np.inf, 1.5, -np.inf],
                       "c": {"d": np.float64("nan"), "e": (2.0, None)}})

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc == {"a": None, "b": [None, 1.5, None], "c": {"d": None, "e": [2.0, None]}}
