"""Discrete-event simulation of the workstation network host."""

from .cluster import HOME, ClusterSimulation, CompileSpan, TimingReport
from .costs import ClusterCostModel, default_cost_model
from .events import Simulator
from .fileserver import FileServer
from .network import SharedResource, ethernet_efficiency
from .workstation import MachinePool, Workstation

__all__ = [
    "HOME",
    "ClusterSimulation",
    "CompileSpan",
    "ClusterCostModel",
    "FileServer",
    "MachinePool",
    "SharedResource",
    "Simulator",
    "TimingReport",
    "Workstation",
    "default_cost_model",
    "ethernet_efficiency",
]
