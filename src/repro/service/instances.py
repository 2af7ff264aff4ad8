"""Instance-type catalogue.

The paper prices its service deployments against public IaaS price lists
(IBM Bluemix / AWS are cited).  This module provides a small catalogue of
CPU and GPU instance types with hourly prices and relative speed factors;
the exact dollar figures are representative of 2018-era list prices — the
cost experiments only depend on the *ratios* between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["INSTANCE_CATALOG", "InstanceType", "get_instance_type"]


@dataclass(frozen=True)
class InstanceType:
    """One rentable machine type.

    Attributes:
        name: Catalogue name, e.g. ``"cpu.large"``.
        hourly_price: Price per node-hour in dollars.
        speed_factor: Relative compute throughput (1.0 = the baseline CPU
            node the latency models assume); a node with speed factor 2.0
            halves processing latency.
        is_gpu: Whether the node carries an accelerator.
    """

    name: str
    hourly_price: float
    speed_factor: float
    is_gpu: bool = False

    def __post_init__(self) -> None:
        if self.hourly_price <= 0.0:
            raise ValueError("hourly_price must be positive")
        if self.speed_factor <= 0.0:
            raise ValueError("speed_factor must be positive")

    @property
    def price_per_second(self) -> float:
        """Price of one node-second."""
        return self.hourly_price / 3600.0


#: Representative instance catalogue (prices in $/hour).
INSTANCE_CATALOG: Dict[str, InstanceType] = {
    "cpu.small": InstanceType(name="cpu.small", hourly_price=0.10, speed_factor=0.6),
    "cpu.medium": InstanceType(name="cpu.medium", hourly_price=0.20, speed_factor=1.0),
    "cpu.large": InstanceType(name="cpu.large", hourly_price=0.40, speed_factor=1.6),
    "gpu.k80": InstanceType(
        name="gpu.k80", hourly_price=0.90, speed_factor=8.0, is_gpu=True
    ),
    "gpu.v100": InstanceType(
        name="gpu.v100", hourly_price=2.50, speed_factor=20.0, is_gpu=True
    ),
}


def get_instance_type(name: str) -> InstanceType:
    """Look up an instance type by name.

    Raises:
        KeyError: If the catalogue has no such instance type.
    """
    try:
        return INSTANCE_CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown instance type {name!r}; catalogue has "
            f"{sorted(INSTANCE_CATALOG)}"
        ) from None
