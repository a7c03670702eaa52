"""Neural-network layer on top of the autograd substrate."""

from repro.nn.module import Module, Parameter
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.dropout import Dropout
from repro.nn.optim import Adam, SparseAdam
from repro.nn import init

__all__ = [
    "Module", "Parameter", "Embedding", "Linear", "Dropout", "Adam",
    "SparseAdam", "init",
]
