"""Neural-network layer library built on the autograd engine."""

from .attention import MultiHeadAttention, apply_rotary, dot_product_attention
from .embedding import TimestepEmbedding, pixel_positional_field
from .init import scaled_init_std, trunc_normal, zeros
from .linear import Linear
from .module import Module, ModuleList, Parameter
from .norm import AdaLNModulation, LayerNorm, RMSNorm, modulate
from .optim import EMA, AdamW
from .schedule import WarmupConstantDecay
from .swiglu import SwiGLU

__all__ = [
    "Module", "ModuleList", "Parameter",
    "Linear", "RMSNorm", "LayerNorm", "AdaLNModulation", "modulate",
    "SwiGLU", "MultiHeadAttention", "dot_product_attention", "apply_rotary",
    "TimestepEmbedding", "pixel_positional_field",
    "AdamW", "EMA", "WarmupConstantDecay",
    "trunc_normal", "zeros", "scaled_init_std",
]
