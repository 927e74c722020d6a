import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nucsplit.cli import cli_main
from nucsplit.volume import Volume, read_rvol, write_rvol


@pytest.fixture()
def scene_cfg(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(
        json.dumps(
            {
                "size": [80, 80, 40],
                "nucleus_count": 4,
                "semi_axis_range": [6.0, 8.0],
                "mu_b": 20.0,
                "mu_f": 200.0,
                "noise_sigma": 4.0,
                "psf_sigma": 1.0,
                "seed": 9,
            }
        )
    )
    return path


@pytest.fixture()
def pipeline_cfg(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text(
        json.dumps(
            {
                "binarization": {"method": "otsu", "sigma_smooth": 1.0, "slabs": 1},
                "weights": {"scheme": "const"},
                "partition": {"imbalance": 0.5, "seed": 0},
                "model": {"v_min": 700.0, "v_max": 2800.0},
            }
        )
    )
    return path


def synth(tmp_path, scene_cfg, capsys, prefix="scene"):
    rc = cli_main(["synth", "--config", str(scene_cfg), "--out-prefix", str(tmp_path / prefix)])
    assert rc == 0
    return json.loads(capsys.readouterr().out)


def flat_volume(tmp_path):
    vol = tmp_path / "flat.rvol"
    write_rvol(vol, Volume(np.full((4, 8, 8), 37, dtype=np.uint16)))
    return str(vol)


def test_synth_writes_pair_and_echoes_config(tmp_path, scene_cfg, capsys):
    out = synth(tmp_path, scene_cfg, capsys)
    assert out["config"]["seed"] == 9
    assert out["config"]["nucleus_count"] == 4
    intensity = read_rvol(out["outputs"]["intensity"])
    truth = read_rvol(out["outputs"]["truth"])
    assert intensity.data.shape == (40, 80, 80)
    assert intensity.data.dtype == np.uint16
    assert truth.data.dtype == np.uint32
    assert len(np.unique(truth.data)) == 5


def test_synth_seed_flag_overrides_config(tmp_path, scene_cfg, capsys):
    a = synth(tmp_path, scene_cfg, capsys, prefix="a")
    rc = cli_main(
        ["synth", "--config", str(scene_cfg), "--out-prefix", str(tmp_path / "b"), "--seed", "77"]
    )
    assert rc == 0
    b = json.loads(capsys.readouterr().out)
    assert b["config"]["seed"] == 77
    va = read_rvol(a["outputs"]["intensity"])
    vb = read_rvol(b["outputs"]["intensity"])
    assert va.data.tobytes() != vb.data.tobytes()


def test_binarize_reports_thresholds(tmp_path, scene_cfg, pipeline_cfg, capsys):
    out = synth(tmp_path, scene_cfg, capsys)
    rc = cli_main(
        [
            "binarize",
            "--in",
            out["outputs"]["intensity"],
            "--config",
            str(pipeline_cfg),
            "--out",
            str(tmp_path / "mask.rvol"),
            "--slabs",
            "2",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["binarization"]["slabs"] == 2  # flag beats file
    assert len(report["slabs"]) == 2
    assert report["foreground_voxels"] > 0
    mask = read_rvol(tmp_path / "mask.rvol")
    assert set(np.unique(mask.data).tolist()) <= {0, 1}


def test_threads_below_one_exit_2(tmp_path, pipeline_cfg, capsys):
    args = ["--in", flat_volume(tmp_path), "--config", str(pipeline_cfg), "--out", str(tmp_path / "out.rvol")]
    assert cli_main(["segment", *args, "--threads", "0"]) == 2
    assert "threads must be an integer >= 1, got 0" in capsys.readouterr().err
    assert cli_main(["segment", *args, "--threads", "2.5"]) == 1  # argparse takes integers only
    assert "invalid int value: '2.5'" in capsys.readouterr().err
    assert cli_main(["binarize", *args, "--threads", "1"]) == 1  # only segment takes --threads
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "out.rvol").exists()


@pytest.mark.parametrize("command", ["binarize", "segment"])
def test_gray_level_above_65535_exits_2(tmp_path, pipeline_cfg, command, capsys):
    data = np.full((4, 8, 8), 10.0, dtype=np.float32)
    data[1, 2, 3] = 1e6
    write_rvol(tmp_path / "huge.rvol", Volume(data))
    out = tmp_path / "out.rvol"
    rc = cli_main([command, "--in", str(tmp_path / "huge.rvol"), "--config", str(pipeline_cfg), "--out", str(out),
                   "--sigma-smooth", "0"])
    assert rc == 2
    assert "gray level 1000000 above 65535 not allowed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_sigma_smooth_exits_2(tmp_path, pipeline_cfg, value, capsys):
    rc = cli_main(["binarize", "--in", flat_volume(tmp_path), "--config", str(pipeline_cfg),
                   "--out", str(tmp_path / "m.rvol"), "--sigma-smooth", value])
    assert rc == 2
    assert f"sigma_smooth must be finite and >= 0, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [("binarization", "slabs", 2.5), ("partition", "seed", 1.5),
                                                 ("partition", "seed", -1)])
def test_non_integral_pipeline_field_exits_2_by_name(tmp_path, pipeline_cfg, section, key, value, capsys):
    raw = json.loads(pipeline_cfg.read_text())
    raw[section][key] = value
    pipeline_cfg.write_text(json.dumps(raw))
    rc = cli_main(["segment", "--in", flat_volume(tmp_path), "--config", str(pipeline_cfg),
                   "--out", str(tmp_path / "labels.rvol")])
    assert rc == 2
    assert f"{key} must be an integer >= " in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("size", [8.5, 8, 8]), ("nucleus_count", 1.5), ("seed", -1)])
def test_non_integral_scene_field_exits_2_by_name(tmp_path, scene_cfg, key, value, capsys):
    raw = json.loads(scene_cfg.read_text())
    raw[key] = value
    scene_cfg.write_text(json.dumps(raw))
    rc = cli_main(["synth", "--config", str(scene_cfg), "--out-prefix", str(tmp_path / "s")])
    assert rc == 2
    assert f"{key} must be an integer >= " in capsys.readouterr().err


def test_segment_roundtrip_and_determinism(tmp_path, scene_cfg, pipeline_cfg, capsys):
    out = synth(tmp_path, scene_cfg, capsys)
    common = [
        "segment",
        "--in",
        out["outputs"]["intensity"],
        "--config",
        str(pipeline_cfg),
        "--report",
        str(tmp_path / "objects.jsonl"),
    ]
    rc = cli_main(common + ["--out", str(tmp_path / "labels_a.rvol")])
    assert rc == 0
    capsys.readouterr()
    rc = cli_main(common + ["--out", str(tmp_path / "labels_b.rvol"), "--threads", "4"])
    assert rc == 0
    capsys.readouterr()

    a = (tmp_path / "labels_a.rvol").read_bytes()
    b = (tmp_path / "labels_b.rvol").read_bytes()
    assert a == b

    lines = (tmp_path / "objects.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["config"]["model"]["v_min"] == 700.0
    assert header["config"]["binarization"]["sigma_smooth"] == 1.0
    assert "seed" in header
    objects = [json.loads(line) for line in lines[1:]]
    assert [o["id"] for o in objects] == list(range(1, len(objects) + 1))
    assert len(objects) == 4


def test_segment_then_eval_closes_the_loop(tmp_path, scene_cfg, pipeline_cfg, capsys):
    out = synth(tmp_path, scene_cfg, capsys)
    rc = cli_main(
        [
            "segment",
            "--in",
            out["outputs"]["intensity"],
            "--config",
            str(pipeline_cfg),
            "--out",
            str(tmp_path / "labels.rvol"),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = cli_main(
        [
            "eval",
            "--pred",
            str(tmp_path / "labels.rvol"),
            "--truth",
            out["outputs"]["truth"],
            "--out",
            str(tmp_path / "report.json"),
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out
    assert "missed" in table
    payload = json.loads((tmp_path / "report.json").read_text())
    rep = payload["report"]
    assert rep["gt_count"] == 4
    assert (rep["missed"], rep["added"], rep["merged"], rep["split"]) == (0, 0, 0, 0)


def test_eval_identity_reports_zeros(tmp_path, scene_cfg, capsys):
    out = synth(tmp_path, scene_cfg, capsys)
    truth = out["outputs"]["truth"]
    rc = cli_main(["eval", "--pred", truth, "--truth", truth])
    assert rc == 0
    table = capsys.readouterr().out
    for line in table.splitlines():
        if any(word in line for word in ("missed", "added", "merged", "split")):
            assert " 0 " in f"{line} "


def test_usage_errors_exit_1(capsys):
    assert cli_main([]) == 1
    assert cli_main(["frobnicate"]) == 1
    assert cli_main(["segment", "--in", "x.rvol"]) == 1  # missing --out
    assert cli_main(["segment", "--bogus-flag"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert cli_main(["segment", "--help"]) == 0
    capsys.readouterr()


def test_data_errors_exit_2(tmp_path, scene_cfg, pipeline_cfg, capsys):
    # unreadable input
    rc = cli_main(
        [
            "segment",
            "--in",
            str(tmp_path / "missing.rvol"),
            "--config",
            str(pipeline_cfg),
            "--out",
            str(tmp_path / "x.rvol"),
        ]
    )
    assert rc == 2
    capsys.readouterr()

    # config with an unknown field names the offender
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"binarization": {"sigma_smoooth": 1.0}}))
    out = synth(tmp_path, scene_cfg, capsys)
    rc = cli_main(
        [
            "binarize",
            "--in",
            out["outputs"]["intensity"],
            "--config",
            str(bad),
            "--out",
            str(tmp_path / "m.rvol"),
        ]
    )
    assert rc == 2
    assert "sigma_smoooth" in capsys.readouterr().err

    # float label volumes are not labels
    f32 = tmp_path / "f32.rvol"
    write_rvol(f32, Volume(np.ones((2, 3, 4), dtype=np.float32)))
    rc = cli_main(["eval", "--pred", str(f32), "--truth", str(f32)])
    assert rc == 2
    assert "f32" in capsys.readouterr().err


@pytest.mark.parametrize("text, found", [("[]", "array"), ('"abc"', "string"), ("null", "null"), ("3", "number")])
@pytest.mark.parametrize("command", ["binarize", "segment"])
def test_pipeline_config_that_is_not_an_object_exits_2(tmp_path, text, found, command, capsys):
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(text)
    out = str(tmp_path / "o.rvol")
    rc = cli_main([command, "--in", flat_volume(tmp_path), "--config", str(cfg), "--out", out])
    assert rc == 2
    assert f"{cfg} must hold a JSON object, found a JSON {found}" in capsys.readouterr().err


@pytest.mark.parametrize("text, found", [("[]", "array"), ("true", "boolean")])
def test_scene_config_that_is_not_an_object_exits_2(tmp_path, text, found, capsys):
    cfg = tmp_path / "scene.json"
    cfg.write_text(text)
    rc = cli_main(["synth", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")])
    assert rc == 2
    assert f"{cfg} must hold a JSON object, found a JSON {found}" in capsys.readouterr().err


@pytest.mark.parametrize("text, found", [("null", "null"), ('"size"', "string"), ("[1, 2]", "array")])
def test_rvol_header_that_is_not_an_object_exits_2(tmp_path, pipeline_cfg, text, found, capsys):
    vol = flat_volume(tmp_path)
    with open(vol + ".json", "w") as f:
        f.write(text)
    rc = cli_main(["segment", "--in", vol, "--config", str(pipeline_cfg), "--out", str(tmp_path / "l.rvol")])
    assert rc == 2
    assert f"{vol}.json must hold a JSON object, found a JSON {found}" in capsys.readouterr().err


def test_segment_requires_model_section(tmp_path, scene_cfg, capsys):
    out = synth(tmp_path, scene_cfg, capsys)
    rc = cli_main(
        [
            "segment",
            "--in",
            out["outputs"]["intensity"],
            "--out",
            str(tmp_path / "x.rvol"),
        ]
    )
    assert rc == 2
    assert "model.v_min" in capsys.readouterr().err


def test_model_flags_complete_a_configless_segment(tmp_path, scene_cfg, capsys):
    out = synth(tmp_path, scene_cfg, capsys)
    rc = cli_main(
        [
            "segment",
            "--in",
            out["outputs"]["intensity"],
            "--out",
            str(tmp_path / "labels.rvol"),
            "--sigma-smooth",
            "1.0",
            "--v-min",
            "700",
            "--v-max",
            "2800",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["objects"] == 4


def test_segment_constant_volume_finds_nothing(tmp_path, pipeline_cfg, capsys):
    flat = tmp_path / "flat.rvol"
    write_rvol(flat, Volume(np.full((8, 16, 16), 37, dtype=np.uint16)))
    rc = cli_main(
        [
            "segment",
            "--in",
            str(flat),
            "--config",
            str(pipeline_cfg),
            "--out",
            str(tmp_path / "labels.rvol"),
        ]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["objects"] == 0
    assert not read_rvol(tmp_path / "labels.rvol").data.any()



@pytest.mark.parametrize(
    "section, key",
    [("model", "imbalance"), ("partition", "coarsen_floor"), ("partition", "fm_passes")],
)
def test_removed_config_fields_exit_2(tmp_path, pipeline_cfg, section, key, capsys):
    raw = json.loads(pipeline_cfg.read_text())
    raw[section][key] = 1
    cfg = tmp_path / "removed.json"
    cfg.write_text(json.dumps(raw))
    out = str(tmp_path / "l.rvol")
    rc = cli_main(["segment", "--in", flat_volume(tmp_path), "--config", str(cfg), "--out", out])
    assert rc == 2
    assert f"unknown config field '{section}.{key}'" in capsys.readouterr().err


def test_segment_echoes_exactly_the_config_fields(tmp_path, scene_cfg, pipeline_cfg, capsys):
    out = synth(tmp_path, scene_cfg, capsys)
    report = tmp_path / "objects.jsonl"
    rc = cli_main(
        [
            "segment",
            "--in",
            out["outputs"]["intensity"],
            "--config",
            str(pipeline_cfg),
            "--out",
            str(tmp_path / "l.rvol"),
            "--report",
            str(report),
            "--imbalance",
            "0.3",
        ]
    )
    assert rc == 0
    config = json.loads(report.read_text().splitlines()[0])["config"]
    assert {name: sorted(fields) for name, fields in config.items()} == {
        "binarization": ["method", "sigma_smooth", "slabs"],
        "weights": ["scheme", "sigma_grad"],
        "partition": ["imbalance", "seed"],
        "model": ["psi_ideal", "psi_min", "shoulder", "v_max", "v_min"],
    }
    assert config["partition"]["imbalance"] == 0.3


@pytest.mark.parametrize(
    "bad, counts", [(np.nan, "1 NaN and 0 infinite"), (np.inf, "0 NaN and 1 infinite")]
)
@pytest.mark.parametrize("command", ["binarize", "segment"])
def test_non_finite_input_exits_2(tmp_path, pipeline_cfg, bad, counts, command, capsys):
    data = np.full((4, 8, 8), 10.0, dtype=np.float32)
    data[1, 2, 3] = bad
    vol = tmp_path / "v.rvol"
    write_rvol(vol, Volume(data))
    out = str(tmp_path / "o.rvol")
    rc = cli_main([command, "--in", str(vol), "--config", str(pipeline_cfg), "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"non-finite values: {counts}" in err


def test_infinite_spacing_in_the_header_exits_2(tmp_path, pipeline_cfg, capsys):
    vol = flat_volume(tmp_path)
    header = json.loads(open(vol + ".json").read())
    header["spacing"] = [1.0, 1.0, float("inf")]
    with open(vol + ".json", "w") as f:
        json.dump(header, f)  # written as the bare token Infinity
    assert "Infinity" in open(vol + ".json").read()
    out = str(tmp_path / "l.rvol")
    rc = cli_main(["segment", "--in", vol, "--config", str(pipeline_cfg), "--out", out])
    assert rc == 2
    assert "spacing must be finite and > 0" in capsys.readouterr().err


def test_short_spacing_in_the_header_exits_2(tmp_path, pipeline_cfg, capsys):
    vol = flat_volume(tmp_path)
    header = json.loads(open(vol + ".json").read())
    header["spacing"] = [1, 1]
    with open(vol + ".json", "w") as f:
        json.dump(header, f)
    rc = cli_main(["binarize", "--in", vol, "--config", str(pipeline_cfg), "--out", str(tmp_path / "m.rvol")])
    assert rc == 2
    assert f"{vol}.json: rvol header spacing must be three numbers, got [1, 1]" in capsys.readouterr().err


def test_synth_with_nan_spacing_exits_2(tmp_path, scene_cfg, capsys):
    raw = json.loads(scene_cfg.read_text())
    raw["spacing"] = [1.0, 1.0, float("nan")]
    scene_cfg.write_text(json.dumps(raw))  # written as the bare token NaN
    rc = cli_main(["synth", "--config", str(scene_cfg), "--out-prefix", str(tmp_path / "s")])
    assert rc == 2
    assert "spacing must be finite and > 0" in capsys.readouterr().err


def test_module_entry_point_runs():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "nucsplit", "segment", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert run.returncode == 0
    assert "--threads" in run.stdout


def test_spacing_too_anisotropic_for_the_cut_metric_exits_2(tmp_path, pipeline_cfg, capsys):
    vol = tmp_path / "flat.rvol"
    write_rvol(vol, Volume(np.full((4, 8, 8), 37, dtype=np.uint16), (1.0, 1.0, 1e6)))
    out = str(tmp_path / "l.rvol")
    rc = cli_main(["segment", "--in", str(vol), "--config", str(pipeline_cfg), "--out", out])
    assert rc == 2
    assert "spacing (1.0, 1.0, 1000000.0) is too anisotropic" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0", "1.0", "1.5"])
def test_imbalance_outside_the_open_unit_interval_exits_2(tmp_path, pipeline_cfg, eps, capsys):
    out = str(tmp_path / "l.rvol")
    argv = ["segment", "--in", flat_volume(tmp_path), "--config", str(pipeline_cfg), "--out", out]
    rc = cli_main(argv + ["--imbalance", eps])
    assert rc == 2
    assert "imbalance must lie in (0, 1)" in capsys.readouterr().err


def echoed_segment_config(tmp_path, pipeline_cfg, extra):
    report = tmp_path / "objects.jsonl"
    out = str(tmp_path / "l.rvol")
    argv = ["segment", "--in", flat_volume(tmp_path), "--config", str(pipeline_cfg), "--out", out]
    assert cli_main(argv + ["--report", str(report)] + extra) == 0
    return json.loads(report.read_text().splitlines()[0])["config"]


@pytest.mark.parametrize(
    "flag, section, key, value",
    [
        ("--method", "binarization", "method", "model_threshold"),
        ("--sigma-smooth", "binarization", "sigma_smooth", 0.5),
        ("--slabs", "binarization", "slabs", 2),
        ("--scheme", "weights", "scheme", "prob"),
        ("--sigma-grad", "weights", "sigma_grad", 7.5),
        ("--imbalance", "partition", "imbalance", 0.3),
        ("--seed", "partition", "seed", 5),
        ("--v-min", "model", "v_min", 800.0),
        ("--v-max", "model", "v_max", 2000.0),
        ("--shoulder", "model", "shoulder", 0.3),
        ("--psi-min", "model", "psi_min", 0.7),
        ("--psi-ideal", "model", "psi_ideal", 0.9),
    ],
)
def test_each_override_flag_sets_its_own_field(tmp_path, pipeline_cfg, flag, section, key, value):
    expected = echoed_segment_config(tmp_path, pipeline_cfg, [])
    assert expected[section][key] != value
    expected[section][key] = value
    assert echoed_segment_config(tmp_path, pipeline_cfg, [flag, str(value)]) == expected
