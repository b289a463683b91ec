"""Discrete-event substrate: simulator, device population, network, trace."""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.fleet import FleetConfig, FleetSimulation
from repro.sim.network import NetworkModel
from repro.sim.population import (
    ColumnarDevicePopulation,
    DevicePopulation,
    DeviceProfile,
    PopulationConfig,
)
from repro.sim.trace import (
    BoundedMetricsTrace,
    MetricsTrace,
    Outcome,
    ParticipationRecord,
    ServerStepRecord,
)

__all__ = [
    "EventHandle",
    "Simulator",
    "NetworkModel",
    "ColumnarDevicePopulation",
    "DevicePopulation",
    "DeviceProfile",
    "PopulationConfig",
    "FleetConfig",
    "FleetSimulation",
    "BoundedMetricsTrace",
    "MetricsTrace",
    "Outcome",
    "ParticipationRecord",
    "ServerStepRecord",
]
