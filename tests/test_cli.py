import csv
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holosphere
from holosphere import chain as chain_module, cli, geometry
from holosphere.cli import ERROR, _write_json, main
from holosphere.config import RECONSTRUCT_TOLERANCES, demo_config, validate_config
from holosphere.errors import ConfigError


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# a disk, and two domains too small for an offset of 0.1 from the centre
DOMAINS = {
    "unit_disk": {"shape": "disk", "center": [0.0, 0.0], "radius": 1.0,
                  "base_point": [0.0, 0.0]},
    "small_square": {"shape": "rectangle", "corners": [[-0.08, -0.08], [0.08, 0.08]],
                     "base_point": [0.0, 0.0]},
    "small_disk": {"shape": "disk", "center": [0.0, 0.0], "radius": 0.12,
                   "base_point": [0.0, 0.0]},
}


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

    def test_reconstruct_defaults(self):
        doc = demo_config(1)
        doc.pop("reconstruct")
        assert validate_config(doc).reconstruct == {
            "sample_grid": (33, 33),
            "eval_grid": (8, 8),
            "gauge": None,
            "tolerance": 1e-3,
            "refusal_threshold": 1e-2,
        }

    def test_no_reconstruct_block_beyond_cap(self):
        doc = demo_config(3)
        doc["n"] = 4
        doc["betas"] = ["1"] * 4
        doc["integration_constants"] = [
            [[0.0, 0.0]] * (2 * r + 1) for r in range(4)
        ]
        for block in ("ruled", "kaehler", "reconstruct"):
            doc.pop(block)
        assert validate_config(doc).reconstruct is None

    @pytest.mark.parametrize("path", [
        "$.tolerence", "$.domain.radius", "$.grid.row", "$.calabi.order",
        "$.output.format", "$.perturb.size", "$.kaehler.gama", "$.kaehler.z_grid.colz",
        "$.ruled.probes", "$.reconstruct.sample_grd", "$.reconstruct.eval_grid.row",
    ])
    def test_unknown_field_refused(self, path):
        # a misspelt key would otherwise leave its default in force
        doc = demo_config(3)
        doc["perturb"] = {"target": "F2"}
        *blocks, key = path[2:].split(".")
        target = doc
        for block in blocks:
            target = target[block]
        target[key] = 1
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.path == path
        assert "unknown field (known: [" in str(err.value)

    def test_unknown_field_lists_the_known_ones(self):
        doc = demo_config(1)
        doc["output"]["format"] = ["ply"]
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert str(err.value) == ("$.output.format: unknown field "
                                  "(known: ['formats', 'obj_components'])")

    def test_disk_refuses_rectangle_fields(self):
        doc = demo_config(1)
        doc["domain"] = dict(DOMAINS["unit_disk"], corners=[[-1, -1], [1, 1]])
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.path == "$.domain.corners"

    @pytest.mark.parametrize("block, value", [("domain", "shape"), ("grid", "rows")])
    def test_block_that_is_a_string_refused(self, block, value):
        # `key in doc` on a string tests substrings, so this reached a TypeError
        doc = demo_config(1)
        doc[block] = value
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.path == f"$.{block}"

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
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_demo(self, tmp_path, n):
        out = tmp_path / "run"
        code = main(["reconstruct", "--seed-demo", str(n), "--out", str(out),
                     "--quiet"])
        assert code == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["passed"] is True
        assert report["sup_distance"] <= RECONSTRUCT_TOLERANCES[n]

    @pytest.mark.parametrize("n", [1, 2])
    def test_disk_domain(self, tmp_path, n):
        # sampling stays inside the inscribed square of the disk
        doc = demo_config(n)
        doc["domain"] = {"shape": "disk", "center": [0.0, 0.0],
                         "radius": 1.0, "base_point": [0.0, 0.0]}
        out = tmp_path / "run"
        code = main(["reconstruct", "--config", _write(tmp_path, doc),
                     "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["passed"] is True

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

    def test_ruled_masks_degenerate_geodesic_point(self, tmp_path):
        # the chain degenerates at the geodesic probe point 0.1+0.1i
        doc = demo_config(3)
        doc["betas"] = ["z-(0.1+0.1*i)", "1", "1"]
        out = tmp_path / "run"
        code = main(["ruled", "--config", _write(tmp_path, doc), "--out",
                     str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "ruled_report.json").read_text())
        assert report["ruling_geodesic_residual"] is None
        assert report["passed"] is True
        assert len(report["probes"]) == 5
        assert all(p["residual"] <= 1e-3 for p in report["probes"])

    def test_kaehler_z_grid_missing_the_disk_is_refused(self, tmp_path, capsys):
        # the four points of a 2 x 2 z-grid are the corners of the box
        # around the disk
        doc = demo_config(2)
        doc["domain"] = DOMAINS["unit_disk"]
        doc["kaehler"]["z_grid"] = {"rows": 2, "cols": 2}
        code = main(["kaehler", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path / "run")])
        assert code == 1
        assert "2x2 z_grid lies inside the domain" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["small_square", "small_disk"])
    def test_ruled_geodesic_point_stays_in_small_domains(self, tmp_path, domain):
        doc = demo_config(3)
        doc["domain"] = DOMAINS[domain]
        out = tmp_path / "run"
        code = main(["ruled", "--config", _write(tmp_path, doc), "--out",
                     str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "ruled_report.json").read_text())
        assert report["ruling_geodesic_residual"] is not None

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

    @pytest.mark.parametrize("key, value, path", [
        ("w_box", ["a", 1], "$.kaehler.w_box[0]"),
        ("w_box", [True, 0.1], "$.kaehler.w_box[0]"),
        ("w_box", [-0.1, None], "$.kaehler.w_box[1]"),
        ("min_regular_fraction", 1.5, "$.kaehler.min_regular_fraction"),
        ("min_regular_fraction", -1, "$.kaehler.min_regular_fraction"),
    ])
    def test_bad_kaehler_field_named(self, tmp_path, capsys, key, value, path):
        doc = demo_config(2)
        doc["kaehler"][key] = value
        code = main(["kaehler", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path / "run")])
        assert code == 1
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["calabi", "output"])
    @pytest.mark.parametrize("value", [[3], "x"])
    def test_blocks_must_be_objects(self, tmp_path, capsys, block, value):
        doc = demo_config(1)
        doc[block] = value
        code = main(["verify", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path / "run")])
        assert code == 1
        assert f"$.{block}" in capsys.readouterr().err

    def test_nonanalytic_beta_refused(self, tmp_path, capsys):
        doc = demo_config(2)
        doc["betas"] = ["1", "1/(z-1.2)"]
        cfg = _write(tmp_path, doc)
        code = main(["generate", "--config", cfg, "--out",
                     str(tmp_path / "run")])
        assert code == 1
        assert "beta 1/(z-1.2) has no Taylor surrogate" in capsys.readouterr().err

    @pytest.mark.parametrize("command, block, key, value, path", [
        ("kaehler", "kaehler", "w_box", [float("nan"), 0.1], "$.kaehler.w_box[0]"),
        ("verify", None, "eps_singular", float("inf"), "$.eps_singular"),
        ("verify", None, "fd_step", float("inf"), "$.fd_step"),
        ("verify", None, "fd_step", 10 ** 400, "$.fd_step"),
        ("ruled", "ruled", "w", [[float("nan"), 0]], "$.ruled.w[0]"),
    ], ids=["nan_w_box", "infinite_eps", "infinite_step", "huge_integer_step",
            "nan_ruled_w"])
    def test_non_finite_number_refused(self, tmp_path, capsys, command, block, key,
                                       value, path):
        # Python's JSON reader takes NaN and Infinity; the config must not
        doc = demo_config(3)
        (doc[block] if block else doc)[key] = value
        code = main([command, "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path / "run")])
        assert code == ERROR
        assert f"{path}: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "verify"])
    @pytest.mark.parametrize("change, message", [
        ({"betas": ["0", "1"]}, "100 of the 100 grid points inside the domain are "
                                "singular"),
        ({"eps_singular": 1.0}, "100 of the 100 grid points inside the domain are "
                                "singular"),
        ({"domain": DOMAINS["unit_disk"], "grid": {"rows": 2, "cols": 2}},
         "no point of the 2x2 grid lies inside the domain"),
    ], ids=["zero_beta", "unit_threshold", "grid_missing_the_disk"])
    def test_verification_that_checks_nothing_is_refused(self, tmp_path, capsys,
                                                         command, change, message):
        doc = dict(demo_config(2), **change)
        code = main([command, "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path / "run")])
        assert code == ERROR
        assert message in capsys.readouterr().err

    def test_overflowing_chain_value_refused_without_warnings(self, tmp_path):
        # finite coefficients whose value overflows near z = 20: the
        # refusal names the point, and no numpy warning reaches stderr
        doc = demo_config(2)
        doc["betas"] = ["z^120", "1"]
        doc["domain"]["corners"] = [[-1.0, -1.0], [20.0, 1.0]]
        cfg = _write(tmp_path, doc)
        src = str(Path(holosphere.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "from holosphere.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "generate", "--config", cfg,
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "non-finite chain value" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


FD_FAMILIES = ["fbar_identity", "minimality", "recursion", "tangent_formula"]


@pytest.mark.parametrize("command", ["generate", "verify"])
@pytest.mark.parametrize("change, unchecked, skipped", [
    ({"grid": {"rows": 2, "cols": 2}}, ["calabi"] + FD_FAMILIES, 4),
    ({"fd_step": 5.0}, FD_FAMILIES, 100),
    # singular at the centre of the grid, and every stencil leaves the domain
    ({"betas": ["z", "1"], "grid": {"rows": 3, "cols": 3}}, ["calabi"] + FD_FAMILIES,
     9),
], ids=["grid_2x2", "step_5", "singular_3x3"])
def test_family_checked_at_no_point_fails(tmp_path, capsys, command, change,
                                          unchecked, skipped):
    doc = dict(demo_config(2), **change)
    out = tmp_path / "run"
    code = main([command, "--config", _write(tmp_path, doc), "--out", str(out)])
    assert code == cli.FAIL
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["passed"] is False
    assert sorted(f for f, s in report["status"].items() if s == "UNCHECKED") == unchecked
    assert set(report["status"].values()) == {"PASS", "UNCHECKED"}
    stdout = capsys.readouterr().out
    for fam in unchecked:
        assert report["counts"][fam] == {"evaluated": 0, "skipped": skipped}
        assert f"[UNCHECKED] {fam}: checked at no point ({skipped} skipped)" in stdout


def test_surrogates_reported_only_for_nonpolynomial_betas(tmp_path):
    doc = demo_config(2)
    doc["grid"] = {"rows": 3, "cols": 3}
    for betas, expected in ((["1", "1"], None), (["1", "exp(0.5*z)"], [1])):
        doc["betas"] = betas
        out = tmp_path / betas[1]
        assert main(["verify", "--config", _write(tmp_path, doc), "--out",
                     str(out), "--quiet"]) == 0
        report = json.loads((out / "diagnostics.json").read_text())
        if expected is None:
            assert "surrogates" not in report
        else:
            assert [s["index"] for s in report["surrogates"]] == expected


def test_reports_are_strict_json(tmp_path):
    path = tmp_path / "report.json"
    _write_json(path, {"a": float("nan"), "b": [np.inf, 1.5, -np.inf],
                       "c": {"d": np.float64("nan"), "e": (2.0, None)}})

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc == {"a": None, "b": [None, 1.5, None], "c": {"d": None, "e": [2.0, None]}}


@pytest.mark.parametrize("command, n", [("generate", 3), ("verify", 1), ("verify", 3),
                                        ("kaehler", 3)])
def test_demo_configs_exit_zero(tmp_path, command, n):
    assert main([command, "--seed-demo", str(n), "--out", str(tmp_path), "--quiet"]) == 0


def _commands(n):
    """The subcommands that apply to chains of length n."""
    return (["generate", "verify", "reconstruct"] + ["kaehler"] * (n >= 2)
            + ["ruled"] * (n >= 3))


# a known defect: with 41 nodes the roundoff of the spectral descent
# grows as the sampling box shrinks (sup distance 1.15e-2 against 1e-2)
_SMALL_DISK_N3 = pytest.mark.xfail(strict=True, reason="reconstruct loses "
                                   "accuracy on small domains")


@pytest.mark.parametrize("command, n, domain", [
    pytest.param(command, n, domain, marks=_SMALL_DISK_N3
                 if (command, n, domain) == ("reconstruct", 3, "small_disk") else ())
    for domain in DOMAINS for n in (1, 2, 3) for command in _commands(n)
])
def test_commands_exit_zero_on_disks_and_small_domains(tmp_path, command, n, domain):
    doc = demo_config(n)
    doc["domain"] = DOMAINS[domain]
    assert main([command, "--config", _write(tmp_path, doc), "--out",
                 str(tmp_path / "run"), "--quiet"]) == 0


@pytest.mark.parametrize("command, name", [
    ("generate", "surface"), ("kaehler", "kaehler"), ("ruled", "ruled"),
])
def test_grid_commands_write_exactly_the_requested_formats(tmp_path, command, name):
    doc = demo_config(3)
    doc["grid"] = {"rows": 4, "cols": 4}
    doc["kaehler"].update(z_grid={"rows": 2, "cols": 2}, w_samples=1)
    doc["ruled"]["probe_points"] = 0
    report = "diagnostics.json" if command == "generate" else f"{name}_report.json"
    for size in range(4):
        for formats in itertools.combinations(("obj", "csv", "ply"), size):
            doc["output"]["formats"] = list(formats)
            out = tmp_path / "-".join(("run",) + formats)
            assert main([command, "--config", _write(tmp_path, doc), "--out",
                         str(out), "--quiet"]) == 0
            written = sorted(p.name for p in out.iterdir())
            assert written == sorted([report] + [f"{name}.{f}" for f in formats])


def _valid_column(path):
    with open(path, newline="") as fh:
        return [row["valid"] for row in csv.DictReader(fh)]


@pytest.mark.parametrize("eps, singular", [(1e-12, 9), (1e-2, 13)])
def test_config_threshold_reaches_every_command(tmp_path, eps, singular):
    # the chain of betas (z, 1, 1) masks more points of the 9 x 9 grid as
    # eps_singular grows, and every command masks the same ones
    doc = demo_config(3)
    doc.update(betas=["z", "1", "1"], grid={"rows": 9, "cols": 9}, eps_singular=eps)
    doc["output"]["formats"] = ["csv"]
    cfg = _write(tmp_path, doc)
    for command in ("verify", "generate", "kaehler", "ruled"):
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) != ERROR
    report = json.loads((tmp_path / "diagnostics.json").read_text())
    assert report["singular_count"] == singular
    surface, kaehler, ruled = (_valid_column(tmp_path / f"{name}.csv")
                               for name in ("surface", "kaehler", "ruled"))
    assert surface == kaehler == ruled
    assert surface.count("0") == singular


def test_generate_evaluates_its_grid_once(tmp_path, monkeypatch):
    points = []   # the size of each chain evaluation
    original = chain_module.f_chain_eval

    def counted(chain, zs, *args, **kwargs):
        points.append(np.size(zs))
        return original(chain, zs, *args, **kwargs)

    monkeypatch.setattr(chain_module, "f_chain_eval", counted)
    monkeypatch.setattr(geometry, "f_chain_eval", counted)
    assert main(["generate", "--seed-demo", "2", "--out", str(tmp_path),
                 "--quiet"]) == 0
    # the 10 x 10 grid once, then nine points per FD centre at h and h/2
    assert (sum(points), len(points)) == (1252, 3)


def test_parser_is_built_once_per_process(tmp_path, capsys):
    runs = [
        ["verify", "--seed-demo", "2", "--bogus"],
        ["verify", "--seed-demo", "2", "--out", str(tmp_path / "a")],
        ["verify", "--seed-demo", "2", "--out", str(tmp_path / "b"), "--quiet"],
        ["verify", "--seed-demo", "2", "--out", str(tmp_path / "c")],
    ]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    reused = [run(argv) for argv in runs]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [ERROR, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in reused[0][2]
    assert "[PASS]" in reused[1][1] and reused[2][1] == "" and reused[3][1] == reused[1][1]


def test_cli_import_builds_no_parser():
    src = str(Path(holosphere.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import holosphere.cli as c; "
            "assert c._build_parser.cache_info().currsize == 0")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_without_scipy():
    # scipy is a test dependency only: the package must import without it
    src = str(Path(holosphere.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['scipy'] = None; "
            f"sys.path.insert(0, {src!r}); import holosphere.cli")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
