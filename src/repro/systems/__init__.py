"""Target-system models.

Generic abstractions for describing a monitored distributed deployment —
components on hosts (:mod:`repro.systems.components`), fault types
(:mod:`repro.systems.faults`), request-mix workloads
(:mod:`repro.systems.workload`), and component/path monitors
(:mod:`repro.systems.monitors`) — plus the two concrete systems the paper
uses: the EMN e-commerce deployment of Figure 4
(:mod:`repro.systems.emn`) and the two-server worked example of Figure 1(a)
(:mod:`repro.systems.simple`).
"""

from repro.systems.components import Component, Deployment, Host
from repro.systems.emn import EMNSystem, build_emn_system
from repro.systems.faults import Fault, FaultKind, unavailable_components
from repro.systems.monitors import ComponentMonitor, PathMonitor, observation_matrix
from repro.systems.simple import build_simple_system
from repro.systems.tiered import TieredSystem, build_tiered_system
from repro.systems.workload import RequestPath, drop_fraction

__all__ = [
    "Component",
    "ComponentMonitor",
    "Deployment",
    "EMNSystem",
    "Fault",
    "FaultKind",
    "Host",
    "PathMonitor",
    "RequestPath",
    "TieredSystem",
    "build_emn_system",
    "build_simple_system",
    "build_tiered_system",
    "drop_fraction",
    "observation_matrix",
    "unavailable_components",
]
