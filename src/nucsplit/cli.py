"""Command-line front end for the segmentation pipeline.

Four subcommands cover the workflow: `synth` renders a seeded scene,
`binarize` thresholds a volume, `segment` runs the full pipeline, and
`eval` compares a label volume against ground truth. Configuration
lives in a JSON file whose sections mirror the stage configs; selected
fields can be overridden by flags. Every run echoes its fully resolved
configuration so results can be reproduced from the report alone.

Exit codes: 0 success, 1 usage error, 2 data or fit error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from .binarize import BinarizationConfig, binarize
from .evaluate import evaluate
from .graphbuild import EdgeWeightConfig
from .nucmodel import NucleusModelParams
from .partition import PartitionerConfig
from .splitter import segment
from .synthgen import SceneConfig, generate
from .volume import read_rvol, write_rvol

__all__ = ["PipelineConfig", "cli_main", "main"]

_SECTION_FIELDS = {
    "binarization": {f.name for f in dataclasses.fields(BinarizationConfig)},
    "weights": {f.name for f in dataclasses.fields(EdgeWeightConfig)},
    "partition": {f.name for f in dataclasses.fields(PartitionerConfig)},
    "model": {f.name for f in dataclasses.fields(NucleusModelParams)},
}


@dataclass(frozen=True)
class PipelineConfig:
    binarization: BinarizationConfig
    weights: EdgeWeightConfig
    partition: PartitionerConfig
    model: Optional[NucleusModelParams] = None

    def to_dict(self) -> Dict:
        out = {
            "binarization": dataclasses.asdict(self.binarization),
            "weights": dataclasses.asdict(self.weights),
            "partition": dataclasses.asdict(self.partition),
        }
        if self.model is not None:
            out["model"] = dataclasses.asdict(self.model)
        return out


def _load_json(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from e


def _section(raw: Dict, name: str) -> Dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section '{name}' must be an object")
    for key in section:
        if key not in _SECTION_FIELDS[name]:
            raise ValueError(f"unknown config field '{name}.{key}'")
    return dict(section)


def load_pipeline_config(
    path: Optional[str], overrides: argparse.Namespace, need_model: bool
) -> PipelineConfig:
    raw = _load_json(path) if path else {}
    for name in raw:
        if name not in _SECTION_FIELDS:
            raise ValueError(f"unknown config section '{name}'")

    bin_raw = _section(raw, "binarization")
    weight_raw = _section(raw, "weights")
    part_raw = _section(raw, "partition")
    model_raw = _section(raw, "model")

    for flag, target, key in (
        ("method", bin_raw, "method"),
        ("sigma_smooth", bin_raw, "sigma_smooth"),
        ("slabs", bin_raw, "slabs"),
        ("scheme", weight_raw, "scheme"),
        ("sigma_grad", weight_raw, "sigma_grad"),
        ("imbalance", part_raw, "imbalance"),
        ("seed", part_raw, "seed"),
        ("v_min", model_raw, "v_min"),
        ("v_max", model_raw, "v_max"),
        ("shoulder", model_raw, "shoulder"),
        ("psi_min", model_raw, "psi_min"),
        ("psi_ideal", model_raw, "psi_ideal"),
    ):
        value = getattr(overrides, flag, None)
        if value is not None:
            target[key] = value

    model = None
    if need_model:
        for key in ("v_min", "v_max"):
            if key not in model_raw:
                raise ValueError(f"config field 'model.{key}' is required")
        model = NucleusModelParams(**model_raw)
    return PipelineConfig(
        binarization=BinarizationConfig(**bin_raw),
        weights=EdgeWeightConfig(**weight_raw),
        partition=PartitionerConfig(**part_raw),
        model=model,
    )


def _load_scene(path: str, seed: Optional[int]) -> SceneConfig:
    raw = _load_json(path)
    allowed = {f.name for f in dataclasses.fields(SceneConfig)}
    for key in raw:
        if key not in allowed:
            raise ValueError(f"unknown config field '{key}'")
    for key in ("size", "spacing", "semi_axis_range", "psf_sigma"):
        if key in raw and isinstance(raw[key], list):
            raw[key] = tuple(raw[key])
    if seed is not None:
        raw["seed"] = seed
    return SceneConfig(**raw)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_scene(args.config, args.seed)
    intensity, truth = generate(cfg)
    intensity_path = f"{args.out_prefix}_intensity.rvol"
    truth_path = f"{args.out_prefix}_truth.rvol"
    write_rvol(intensity_path, intensity)
    write_rvol(truth_path, truth)
    print(
        json.dumps(
            {
                "command": "synth",
                "config": dataclasses.asdict(cfg),
                "outputs": {"intensity": intensity_path, "truth": truth_path},
            }
        )
    )
    return 0


def cmd_binarize(args: argparse.Namespace) -> int:
    cfg = load_pipeline_config(args.config, args, need_model=False)
    v = read_rvol(getattr(args, "in"))
    mask, slabs = binarize(v, cfg.binarization, threads=args.threads)
    write_rvol(args.out, mask)
    print(
        json.dumps(
            {
                "command": "binarize",
                "config": cfg.to_dict(),
                "slabs": [s.to_dict() for s in slabs],
                "foreground_voxels": int(mask.data.sum()),
                "output": args.out,
            }
        )
    )
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    cfg = load_pipeline_config(args.config, args, need_model=True)
    v = read_rvol(getattr(args, "in"))
    result = segment(
        v,
        cfg.model,
        bin_cfg=cfg.binarization,
        edge_cfg=cfg.weights,
        part_cfg=cfg.partition,
        threads=args.threads,
    )
    write_rvol(args.out, result.labels)
    header = json.dumps(
        {"command": "segment", "config": cfg.to_dict(), "seed": cfg.partition.seed}
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            report = result.object_report()
            if report:
                fh.write(report + "\n")
    print(json.dumps({"command": "segment", "objects": len(result.objects), "output": args.out}))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    truth = read_rvol(args.truth)
    pred = read_rvol(args.pred)
    report = evaluate(truth, pred)
    payload = {
        "command": "eval",
        "truth": args.truth,
        "pred": args.pred,
        "report": report.to_dict(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(report.format_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nucsplit", description="Segment cell nuclei in 3D grayscale volumes."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="render a synthetic scene with ground truth")
    p_synth.add_argument("--config", required=True, help="scene config JSON")
    p_synth.add_argument("--out-prefix", required=True, help="output path prefix")
    p_synth.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p_synth.set_defaults(func=cmd_synth)

    def pipeline_flags(p: argparse.ArgumentParser, with_model: bool) -> None:
        p.add_argument("--config", default=None, help="pipeline config JSON")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--method", choices=["otsu", "model_threshold"], default=None)
        p.add_argument("--sigma-smooth", dest="sigma_smooth", type=float, default=None)
        p.add_argument("--slabs", type=int, default=None)
        if with_model:
            p.add_argument("--scheme", choices=["grad", "prob", "const"], default=None)
            p.add_argument("--sigma-grad", dest="sigma_grad", type=float, default=None)
            p.add_argument("--imbalance", type=float, default=None)
            p.add_argument("--seed", type=int, default=None, help="partitioner seed")
            p.add_argument("--v-min", dest="v_min", type=float, default=None)
            p.add_argument("--v-max", dest="v_max", type=float, default=None)
            p.add_argument("--shoulder", type=float, default=None)
            p.add_argument("--psi-min", dest="psi_min", type=float, default=None)
            p.add_argument("--psi-ideal", dest="psi_ideal", type=float, default=None)

    p_bin = sub.add_parser("binarize", help="threshold a volume into a foreground mask")
    p_bin.add_argument("--in", required=True, help="input RVOL volume")
    p_bin.add_argument("--out", required=True, help="output RVOL mask")
    pipeline_flags(p_bin, with_model=False)
    p_bin.set_defaults(func=cmd_binarize)

    p_seg = sub.add_parser("segment", help="run the full segmentation pipeline")
    p_seg.add_argument("--in", required=True, help="input RVOL volume")
    p_seg.add_argument("--out", required=True, help="output RVOL label volume")
    p_seg.add_argument("--report", default=None, help="JSON-lines object report")
    pipeline_flags(p_seg, with_model=True)
    p_seg.set_defaults(func=cmd_segment)

    p_eval = sub.add_parser("eval", help="compare predicted labels against ground truth")
    p_eval.add_argument("--pred", required=True, help="predicted RVOL labels")
    p_eval.add_argument("--truth", required=True, help="ground-truth RVOL labels")
    p_eval.add_argument("--out", default=None, help="JSON report path")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def cli_main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
