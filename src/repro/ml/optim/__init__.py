"""Optimizers (SGD, momentum/Nesterov, Adam) and LR schedules."""

from .adam import Adam
from .base import Optimizer
from .schedules import ConstantLR, InverseSqrtLR, LRSchedule
from .sgd import SGD, MomentumSGD

__all__ = [
    "Optimizer",
    "SGD",
    "MomentumSGD",
    "Adam",
    "LRSchedule",
    "ConstantLR",
    "InverseSqrtLR",
]
