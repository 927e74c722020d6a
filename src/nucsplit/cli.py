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

from .binarize import METHODS, BinarizationConfig, binarize
from .evaluate import evaluate
from .graphbuild import SCHEMES, EdgeWeightConfig
from .nucmodel import NucleusModelParams
from .partition import PartitionerConfig
from .splitter import segment
from .synthgen import SceneConfig, generate
from .volume import read_json_object, read_rvol, write_rvol

__all__ = ["PipelineConfig", "cli_main", "main"]

_SECTIONS = {
    "binarization": BinarizationConfig,
    "weights": EdgeWeightConfig,
    "partition": PartitionerConfig,
    "model": NucleusModelParams,
}

# one flag per overridable field, `--sigma-smooth` for `sigma_smooth`: (field,
# section, argparse keywords); `binarize` takes the binarization flags only
_OVERRIDES = (
    ("method", "binarization", {"choices": METHODS}),
    ("sigma_smooth", "binarization", {"type": float}),
    ("slabs", "binarization", {"type": int}),
    ("scheme", "weights", {"choices": SCHEMES}),
    ("sigma_grad", "weights", {"type": float}),
    ("imbalance", "partition", {"type": float}),
    ("seed", "partition", {"type": int, "help": "partitioner seed"}),
    ("v_min", "model", {"type": float}),
    ("v_max", "model", {"type": float}),
    ("shoulder", "model", {"type": float}),
    ("psi_min", "model", {"type": float}),
    ("psi_ideal", "model", {"type": float}),
)


@dataclass(frozen=True)
class PipelineConfig:
    binarization: BinarizationConfig
    weights: EdgeWeightConfig
    partition: PartitionerConfig
    model: Optional[NucleusModelParams] = None

    def to_dict(self) -> Dict:
        sections = {name: getattr(self, name) for name in _SECTIONS}
        return {name: dataclasses.asdict(cfg) for name, cfg in sections.items() if cfg is not None}


def _section(raw: Dict, name: str) -> Dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section '{name}' must be an object")
    fields = {f.name for f in dataclasses.fields(_SECTIONS[name])}
    for key in section:
        if key not in fields:
            raise ValueError(f"unknown config field '{name}.{key}'")
    return dict(section)


def load_pipeline_config(
    path: Optional[str], overrides: argparse.Namespace, need_model: bool
) -> PipelineConfig:
    raw = read_json_object(path) if path else {}
    for name in raw:
        if name not in _SECTIONS:
            raise ValueError(f"unknown config section '{name}'")

    sections = {name: _section(raw, name) for name in _SECTIONS}
    for key, section, _ in _OVERRIDES:
        value = getattr(overrides, key, None)
        if value is not None:
            sections[section][key] = value

    model = None
    if need_model:
        for key in ("v_min", "v_max"):
            if key not in sections["model"]:
                raise ValueError(f"config field 'model.{key}' is required")
        model = NucleusModelParams(**sections["model"])
    return PipelineConfig(
        binarization=BinarizationConfig(**sections["binarization"]),
        weights=EdgeWeightConfig(**sections["weights"]),
        partition=PartitionerConfig(**sections["partition"]),
        model=model,
    )


def _load_scene(path: str, seed: Optional[int]) -> SceneConfig:
    raw = read_json_object(path)
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
    mask, slabs = binarize(v, cfg.binarization)
    write_rvol(args.out, mask)
    print(
        json.dumps(
            {
                "command": "binarize",
                "config": cfg.to_dict(),
                "slabs": [dataclasses.asdict(s) for s in slabs],
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
        for key, section, kwargs in _OVERRIDES:
            if with_model or section == "binarization":
                p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **kwargs)

    p_bin = sub.add_parser("binarize", help="threshold a volume into a foreground mask")
    p_bin.add_argument("--in", required=True, help="input RVOL volume")
    p_bin.add_argument("--out", required=True, help="output RVOL mask")
    pipeline_flags(p_bin, with_model=False)
    p_bin.set_defaults(func=cmd_binarize)

    p_seg = sub.add_parser("segment", help="run the full segmentation pipeline")
    p_seg.add_argument("--in", required=True, help="input RVOL volume")
    p_seg.add_argument("--out", required=True, help="output RVOL label volume")
    p_seg.add_argument("--report", default=None, help="JSON-lines object report")
    p_seg.add_argument("--threads", type=int, default=1, help="worker processes that split the components")
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
