"""Minimal neural-network substrate (NumPy only).

This package replaces the TensorFlow / stable-baselines dependency of the
original paper with a small, self-contained implementation sufficient for
the tiny policy networks the paper uses (at most two hidden layers of 32
neurons).  It provides:

- :mod:`repro.nn.initializers` -- weight initialization schemes,
- :mod:`repro.nn.layers` -- dense layers and activation kernels: the
  parameters, gradients and scratch the network computes through,
- :mod:`repro.nn.network` -- the :class:`MLP` container with its flat
  contiguous parameter/gradient buffers (per-layer views) and its one
  forward loop and one backward loop,
- :mod:`repro.nn.optim` -- SGD / RMSProp / Adam optimizers with fused
  in-place steps, plus flat-buffer gradient clipping,
- :mod:`repro.nn.distributions` -- categorical and diagonal-Gaussian action
  distributions with analytic log-probability and entropy gradients.
"""

from repro.nn.distributions import Categorical, DiagGaussian
from repro.nn.layers import ACTIVATIONS, Dense
from repro.nn.network import MLP
from repro.nn.optim import SGD, Adam, RMSProp, clip_grad_norm_flat

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "Categorical",
    "Dense",
    "DiagGaussian",
    "MLP",
    "RMSProp",
    "SGD",
    "clip_grad_norm_flat",
]
