"""Image-classification substrate.

Two complementary pieces live here, mirroring how the paper's IC service is
reproduced (see DESIGN.md section 2):

* a **from-scratch NumPy CNN inference/training engine**
  (:mod:`repro.vision.layers`, :mod:`repro.vision.network`,
  :mod:`repro.vision.model_zoo`, :mod:`repro.vision.training`) that provides
  real convolutional networks of different capacities over the synthetic
  image dataset — the genuine compute path with a FLOP-proportional latency
  model; and

* **calibrated service-version profiles** (:mod:`repro.vision.profiles`)
  of the five ImageNet networks the paper serves (SqueezeNet, AlexNet,
  GoogLeNet, ResNet-50, VGG-16) on CPU and GPU nodes, which reproduce the
  published accuracy/latency characteristics at evaluation scale without
  requiring trained ImageNet weights.

:mod:`repro.vision.classifier` wraps either source behind the single
interface a service node needs.
"""

from repro.vision.classifier import ClassificationResult, ImageClassifier
from repro.vision.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAveragePool,
    MaxPool2D,
    ReLU,
    Residual,
    Softmax,
)
from repro.vision.model_zoo import MINI_MODEL_BUILDERS, build_mini_model
from repro.vision.network import NeuralNetwork
from repro.vision.profiles import (
    IC_CPU_VERSIONS,
    IC_GPU_VERSIONS,
    NetworkProfile,
    simulate_ic_measurements,
)
from repro.vision.training import SGDTrainer, TrainingConfig

__all__ = [
    "ClassificationResult",
    "Conv2D",
    "Dense",
    "Flatten",
    "GlobalAveragePool",
    "IC_CPU_VERSIONS",
    "IC_GPU_VERSIONS",
    "ImageClassifier",
    "MINI_MODEL_BUILDERS",
    "MaxPool2D",
    "NetworkProfile",
    "NeuralNetwork",
    "ReLU",
    "Residual",
    "SGDTrainer",
    "Softmax",
    "TrainingConfig",
    "build_mini_model",
    "simulate_ic_measurements",
]
