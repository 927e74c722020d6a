"""Command-line front end for the segmentation pipeline.

Four subcommands cover the workflow: `synth` renders a seeded scene,
`binarize` thresholds a volume, `segment` runs the full pipeline, and
`eval` compares a label volume against ground truth. Configuration
lives in a JSON file whose sections mirror the stage configs; each
field can be overridden by its flag. Every run echoes its fully resolved
configuration so results can be reproduced from the report alone.

Exit codes: 0 success, 1 usage error, 2 data or fit error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, List, Optional, Union, get_args, get_origin, get_type_hints

from .binarize import METHODS, BinarizationConfig, binarize
from .evaluate import evaluate
from .graphbuild import SCHEMES, EdgeWeightConfig
from .nucmodel import NucleusModelParams
from .partition import PartitionerConfig
from .splitter import segment
from .synthgen import SceneConfig, generate
from .volume import _JSON_TYPES, read_json_object, read_rvol, write_rvol

__all__ = ["cli_main", "main"]

_SECTIONS = {
    "binarization": BinarizationConfig,
    "weights": EdgeWeightConfig,
    "partition": PartitionerConfig,
    "model": NucleusModelParams,
}

# what a field's type cannot say about its flag; every field of ``_SECTIONS``
# gets `--sigma-smooth` for `sigma_smooth`, parsed to its annotated type
_FLAG_EXTRAS = {"method": {"choices": METHODS}, "scheme": {"choices": SCHEMES}, "seed": {"help": "partitioner seed"}}


def _json_type(value) -> str:
    """A JSON value's type, an array's as the list of its elements' types."""
    if type(value) is list:
        return "[" + ", ".join(_json_type(v) for v in value) + "]"
    return _JSON_TYPES[type(value)]


def _wanted(hint) -> List[str]:
    """The JSON types a field of type ``hint`` takes: a number for ``int``
    and ``float``, an array for a tuple, each member's for a ``Union``."""
    args = get_args(hint)
    if get_origin(hint) is Union:
        return [t for a in args for t in _wanted(a)]
    if get_origin(hint) is tuple:
        return ["[" + ", ".join(_JSON_TYPES[a] for a in args) + "]"]
    return [_JSON_TYPES[hint]]


def _known_fields(raw: Dict, cls, where: str = "") -> Dict:
    """A copy of ``raw``; a key that is not a field of ``cls``, or a value
    of a JSON type its field does not take, is a ``ValueError`` naming the
    field, prefixed by ``where``."""
    hints = get_type_hints(cls)
    for key, value in raw.items():
        if key not in hints:
            raise ValueError(f"unknown config field '{where}{key}'")
        wanted = _wanted(hints[key])
        if _json_type(value) not in wanted:
            wanted = " or ".join(wanted)
            raise ValueError(f"config field '{where}{key}' must be JSON {wanted}, found {_json_type(value)}")
    return dict(raw)


def load_pipeline_config(path: Optional[str], overrides: argparse.Namespace, need_model: bool) -> Dict:
    """The stage configs by section name, in ``_SECTIONS`` order; ``model``
    only when ``need_model``. A field's flag beats its JSON value, and a
    field without a default must be set by one of them."""
    raw = read_json_object(path) if path else {}
    for name in raw:
        if name not in _SECTIONS:
            raise ValueError(f"unknown config section '{name}'")

    sections = {}
    for name, cls in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section '{name}' must be an object")
        sections[name] = _known_fields(section, cls, f"{name}.")
        for f in dataclasses.fields(cls):
            value = getattr(overrides, f.name, None)
            if value is not None:
                sections[name][f.name] = value

    if not need_model:
        del sections["model"]
    for name, fields in sections.items():
        for f in dataclasses.fields(_SECTIONS[name]):
            if f.default is dataclasses.MISSING and f.name not in fields:
                raise ValueError(f"config field '{name}.{f.name}' is required")
    return {name: _SECTIONS[name](**fields) for name, fields in sections.items()}


def _config_dict(cfgs: Dict) -> Dict:
    return {name: dataclasses.asdict(cfg) for name, cfg in cfgs.items()}


def _load_scene(path: str, seed: Optional[int]) -> SceneConfig:
    raw = _known_fields(read_json_object(path), SceneConfig)
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
    cfgs = load_pipeline_config(args.config, args, need_model=False)
    v = read_rvol(getattr(args, "in"))
    mask, slabs = binarize(v, cfgs["binarization"])
    write_rvol(args.out, mask)
    print(
        json.dumps(
            {
                "command": "binarize",
                "config": _config_dict(cfgs),
                "slabs": [dataclasses.asdict(s) for s in slabs],
                "foreground_voxels": int(mask.data.sum()),
                "output": args.out,
            }
        )
    )
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    cfgs = load_pipeline_config(args.config, args, need_model=True)
    v = read_rvol(getattr(args, "in"))
    result = segment(v, cfgs["model"], cfgs["binarization"], cfgs["weights"], cfgs["partition"], args.threads)
    write_rvol(args.out, result.labels)
    header = json.dumps({"command": "segment", "config": _config_dict(cfgs), "seed": cfgs["partition"].seed})
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
        for name, cls in _SECTIONS.items():
            if with_model or name == "binarization":
                hints = get_type_hints(cls)
                for f in dataclasses.fields(cls):
                    p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None, type=hints[f.name],
                                   **_FLAG_EXTRAS.get(f.name, {}))

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
