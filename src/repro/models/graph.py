"""Whole-model symbolic graph: pre-layer + repeated blocks + post-layer.

The paper's tuning algorithm exploits that all transformer blocks are
identical within a stage (Section 5.1), so the model graph keeps one
representative block plus the distinct pre/post layers, with the block
multiplied symbolically by the per-stage layer count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.symbolic import Expr

from .config import ModelConfig
from .layers import build_post_layer, build_pre_layer, build_transformer_layer
from .ops import B, S, LayerGraph

__all__ = ["ModelGraph", "trace_model"]


@dataclass
class ModelGraph:
    """Symbolic computation graph of a full model."""

    config: ModelConfig
    flash: bool
    pre: LayerGraph
    block: LayerGraph
    post: LayerGraph
    #: values derived from this graph's expressions, memoized by the
    #: module that derives them; lives and dies with the graph
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @property
    def boundary_activation_bytes(self) -> Expr:
        """Bytes sent between adjacent pipeline stages per microbatch."""
        return 2 * B * S * self.config.hidden_size

    def stage_layers(self, stage_idx: int, num_stages: int,
                     layers_in_stage: int) -> tuple[bool, bool, int]:
        """(has_pre, has_post, num_blocks) composition of one stage."""
        has_pre = stage_idx == 0
        has_post = stage_idx == num_stages - 1
        return has_pre, has_post, layers_in_stage


def trace_model(config: ModelConfig, *, flash: bool = True) -> ModelGraph:
    """Build the symbolic graph for ``config``.

    This is the reproduction's equivalent of the paper's symbolic
    tracing pass (Figure 9): instead of running a PyTorch model on fake
    tensors, the op-level graphs are constructed directly with symbolic
    shapes over ``(b, s, tp)``.
    """
    return ModelGraph(
        config=config,
        flash=flash,
        pre=build_pre_layer(config),
        block=build_transformer_layer(config, flash=flash),
        post=build_post_layer(config),
    )
