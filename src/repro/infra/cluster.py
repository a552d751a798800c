"""Cluster builder: assemble a composable rack in a few lines.

Produces the architecture of Figure 1(b): host servers with FHAs,
fabric switches managed by a central fabric manager, and FAM/FAA
chassis behind FEAs.  The default shape is a single-switch star (the
Omega testbed); multi-switch trees and multi-domain fabrics are built
by passing explicit specs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from .. import params
from ..mem.dram import DramDevice
from ..mem.nodes import (
    CcNumaNode,
    CpulessExpander,
    MemoryNode,
    NodeKind,
    NonCcNumaNode,
)
from ..pcie.manager import FabricManager
from ..sim import Environment
from ..topo import (
    EndpointSpec,
    LinkClassSpec,
    PodSpec,
    SwitchSpec,
    TopologyDescriptor,
    compile_topology,
)
from .chassis import Accelerator, AcceleratorChassis, FamChassis
from .host import HostServer

__all__ = ["ClusterSpec", "FamSpec", "FaaSpec", "Cluster",
           "build_cluster", "cluster_descriptor"]


@dataclasses.dataclass
class FamSpec:
    """One memory chassis to instantiate."""

    name: str
    kind: NodeKind = NodeKind.CPULESS_NUMA
    capacity_bytes: int = 1 << 30
    modules: int = 1
    read_extra_ns: float = params.FAM_MEDIA_READ_NS
    write_extra_ns: float = params.FAM_MEDIA_WRITE_NS
    link_params: Optional[params.LinkParams] = None  # per-chassis link


@dataclasses.dataclass
class FaaSpec:
    """One accelerator chassis to instantiate."""

    name: str
    accelerators: int = 1
    setup_ns: float = 0.0


@dataclasses.dataclass
class ClusterSpec:
    """The whole rack."""

    hosts: int = 1
    fams: Sequence[FamSpec] = dataclasses.field(
        default_factory=lambda: [FamSpec(name="fam0")])
    faas: Sequence[FaaSpec] = dataclasses.field(default_factory=list)
    cores_per_host: int = 1
    local_bytes: int = 1 << 30
    scheduler: str = "fair"
    link_params: Optional[params.LinkParams] = None
    control_lane: bool = False
    map_all_fams: bool = True
    cache_configs: Optional[tuple] = None   # override host cache geometry
    # Optional declarative wiring: when given, the fabric (switches,
    # links, endpoint attachments) compiles from this descriptor
    # instead of the derived single-switch star.  The descriptor must
    # provide an endpoint for every host/FAM/FAA name in this spec.
    descriptor: Optional[TopologyDescriptor] = None


class Cluster:
    """A built rack: topology + hosts + chassis, ready to run."""

    def __init__(self, env: Environment, topology: Topology,
                 manager: FabricManager,
                 hosts: Dict[str, HostServer],
                 fams: Dict[str, FamChassis],
                 faas: Dict[str, AcceleratorChassis]) -> None:
        self.env = env
        self.topology = topology
        self.manager = manager
        self.hosts = hosts
        self.fams = fams
        self.faas = faas

    def host(self, index: int = 0) -> HostServer:
        return self.hosts[f"host{index}"]

    def fam(self, name_or_index=0) -> FamChassis:
        if isinstance(name_or_index, int):
            return self.fams[list(self.fams)[name_or_index]]
        return self.fams[name_or_index]

    def faa(self, name_or_index=0) -> AcceleratorChassis:
        if isinstance(name_or_index, int):
            return self.faas[list(self.faas)[name_or_index]]
        return self.faas[name_or_index]

    def endpoint_id(self, name: str) -> int:
        return self.topology.endpoints[name].global_id

    def describe(self) -> str:
        lines = ["composable cluster"]
        for host in self.hosts.values():
            lines.append(host.describe())
        for name, fam in self.fams.items():
            module = fam.modules[0]
            lines.append(f"FAM {name}: {len(fam.modules)} x "
                         f"{module.capacity_bytes >> 20} MiB "
                         f"({module.kind.value})")
        for name, faa in self.faas.items():
            lines.append(f"FAA {name}: "
                         f"{sorted(faa.accelerators)} accelerators")
        lines.append(self.topology.describe())
        return "\n".join(lines)


def _make_node(env: Environment, spec: FamSpec, index: int) -> MemoryNode:
    module_capacity = spec.capacity_bytes // spec.modules
    name = f"{spec.name}.mod{index}"
    media = DramDevice(env, name=f"{name}.media")
    common = dict(media=media, read_extra_ns=spec.read_extra_ns,
                  write_extra_ns=spec.write_extra_ns, name=name)
    if spec.kind is NodeKind.CPULESS_NUMA:
        return CpulessExpander(env, module_capacity, **common)
    if spec.kind is NodeKind.CC_NUMA:
        return CcNumaNode(env, module_capacity, **common)
    if spec.kind is NodeKind.NONCC_NUMA:
        return NonCcNumaNode(env, module_capacity, **common)
    raise ValueError(f"cannot build a chassis of kind {spec.kind}"
                     " (COMA clusters are built via repro.mem.ComaCluster)")


def _link_class_from_params(lp: params.LinkParams) -> LinkClassSpec:
    return LinkClassSpec(lanes=lp.lanes, gt_per_s=lp.gt_per_s,
                         flit_bytes=lp.flit_bytes,
                         propagation_ns=lp.propagation_ns,
                         credits=lp.credits)


def cluster_descriptor(spec: ClusterSpec,
                       name: str = "cluster_star") -> TopologyDescriptor:
    """Derive the single-switch star descriptor a spec implies.

    This is the declarative twin of the historical hand-wired builder:
    hosts upstream, FAM/FAA chassis downstream, one switch, per-FAM
    link classes where a :class:`FamSpec` overrides the link.  The t2
    committed shape (``repro/topo/shapes/t2_star.json``) is exactly
    this derivation for ``ClusterSpec(hosts=1)`` — pinned by tests.
    """
    link_classes: Dict[str, LinkClassSpec] = {}
    default_link_class = None
    if spec.link_params is not None:
        link_classes["cluster"] = _link_class_from_params(spec.link_params)
        default_link_class = "cluster"
    endpoints = [
        EndpointSpec(name=f"host{h}", switch="sw0", role="upstream",
                     control_lane=spec.control_lane)
        for h in range(spec.hosts)]
    for fam_spec in spec.fams:
        fam_class = None
        if fam_spec.link_params is not None:
            link_classes[fam_spec.name] = \
                _link_class_from_params(fam_spec.link_params)
            fam_class = fam_spec.name
        endpoints.append(EndpointSpec(
            name=fam_spec.name, switch="sw0", link_class=fam_class,
            control_lane=spec.control_lane))
    for faa_spec in spec.faas:
        endpoints.append(EndpointSpec(
            name=faa_spec.name, switch="sw0",
            control_lane=spec.control_lane))
    return TopologyDescriptor(
        name=name,
        description=f"single-switch star: {spec.hosts} host(s), "
                    f"{len(spec.fams)} FAM, {len(spec.faas)} FAA",
        scheduler=spec.scheduler,
        link_classes=link_classes,
        default_link_class=default_link_class,
        pods=(PodSpec(name="pod0", domain=0,
                      switches=(SwitchSpec(name="sw0"),),
                      endpoints=tuple(endpoints)),)).validate()


def build_cluster(env: Environment,
                  spec: Optional[ClusterSpec] = None) -> Cluster:
    """Build a composable rack from a spec.

    The fabric wiring always goes through the declarative topology
    compiler: either the spec's explicit ``descriptor`` or the derived
    single-switch star (:func:`cluster_descriptor`).  Hosts and
    chassis then attach to the compiled endpoints by name.
    """
    spec = spec or ClusterSpec()
    if spec.hosts < 1:
        raise ValueError("need at least one host")
    descriptor = spec.descriptor or cluster_descriptor(spec)
    fabric = compile_topology(descriptor, env, configure=False)
    topology = fabric.topology

    expected = ([f"host{h}" for h in range(spec.hosts)]
                + [fam_spec.name for fam_spec in spec.fams]
                + [faa_spec.name for faa_spec in spec.faas])
    missing = [name for name in expected
               if name not in topology.endpoints]
    if missing:
        raise ValueError(
            f"descriptor {descriptor.name!r} has no endpoint(s) "
            f"{', '.join(missing)} required by the cluster spec; it "
            f"provides: {', '.join(sorted(topology.endpoints))}")

    hosts: Dict[str, HostServer] = {}
    for h in range(spec.hosts):
        name = f"host{h}"
        hosts[name] = HostServer(env, name, topology.port_of(name),
                                 local_bytes=spec.local_bytes,
                                 cores=spec.cores_per_host,
                                 cache_configs=spec.cache_configs)

    fams: Dict[str, FamChassis] = {}
    for fam_spec in spec.fams:
        if fam_spec.kind is NodeKind.CC_NUMA and fam_spec.modules != 1:
            raise ValueError("CC-NUMA chassis must have exactly one module")
        modules = [_make_node(env, fam_spec, i)
                   for i in range(fam_spec.modules)]
        fams[fam_spec.name] = FamChassis(env,
                                         topology.port_of(fam_spec.name),
                                         modules, name=fam_spec.name)

    faas: Dict[str, AcceleratorChassis] = {}
    for faa_spec in spec.faas:
        accelerators = [
            Accelerator(env, name=f"{faa_spec.name}.acc{i}",
                        setup_ns=faa_spec.setup_ns)
            for i in range(faa_spec.accelerators)]
        faas[faa_spec.name] = AcceleratorChassis(
            env, topology.port_of(faa_spec.name), accelerators,
            name=faa_spec.name)

    manager = fabric.manager
    manager.configure()

    if spec.map_all_fams:
        for host in hosts.values():
            for fam_name, fam in fams.items():
                device_id = topology.endpoints[fam_name].global_id
                host.map_remote(fam_name, device_id, fam.capacity_bytes)

    return Cluster(env, topology, manager, hosts, fams, faas)
