"""Image-classification substrate: calibrated service-version profiles.

:mod:`repro.vision.profiles` holds calibrated CPU and GPU profiles of the
five ImageNet networks the paper serves (SqueezeNet, AlexNet, GoogLeNet,
ResNet-50, VGG-16).  They reproduce the published accuracy/latency
characteristics at evaluation scale without trained ImageNet weights; see
``README.md`` for how each substrate stands in for the paper's.
"""

from repro.vision.profiles import (
    IC_CPU_VERSIONS,
    IC_GPU_VERSIONS,
    NetworkProfile,
    simulate_ic_measurements,
)

__all__ = [
    "IC_CPU_VERSIONS",
    "IC_GPU_VERSIONS",
    "NetworkProfile",
    "simulate_ic_measurements",
]
