"""Nuclei segmentation in 3D volumes: histogram-model binarization plus
recursive balanced graph bipartitioning of the foreground."""

from .binarize import BinarizationConfig, binarize
from .evaluate import EvalReport, evaluate
from .geometry import cut_metric_weights
from .graphbuild import EdgeWeightConfig, build_graph
from .nucmodel import NucleusModelParams
from .partition import Bipartition, PartitionerConfig, bipartition, split_blocks
from .splitter import SegmentationResult, segment
from .synthgen import SceneConfig, generate
from .volume import Volume, connected_components

__version__ = "0.1.0"

__all__ = [
    "BinarizationConfig",
    "Bipartition",
    "EdgeWeightConfig",
    "EvalReport",
    "NucleusModelParams",
    "PartitionerConfig",
    "SceneConfig",
    "SegmentationResult",
    "Volume",
    "binarize",
    "bipartition",
    "build_graph",
    "connected_components",
    "cut_metric_weights",
    "evaluate",
    "generate",
    "segment",
    "split_blocks",
]
