"""Fabric topology construction: endpoints, switches, links, domains.

A :class:`Topology` is the static wiring of a composable rack: host
adapters and device adapters (endpoints) connected to PBR switches,
switches interconnected within a domain (PBR links) and across domains
(HBR links), supporting both direct and indirect topologies "akin to
the Ethernet network" (section 2.1).

The topology assigns PBR IDs at registration time; the
:class:`~repro.pcie.manager.FabricManager` later walks the graph and
fills every switch's routing table — exactly the division of labour the
paper describes ("the switching routing table is generally filled up by
a central fabric manager").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from .. import params
from ..fabric.link import LinkLayer
from ..fabric.transaction import TransactionPort
from ..sim import Environment
from .routing import MAX_PBR_IDS, PbrId
from .switch import FabricSwitch, PortRole

__all__ = ["Topology", "Endpoint"]


@dataclasses.dataclass
class Endpoint:
    """A fabric edge device: an FHA (host side) or FEA (device side)."""

    name: str
    pbr: PbrId
    port: Optional[TransactionPort] = None

    @property
    def global_id(self) -> int:
        return self.pbr.global_id


class Topology:
    """Builder and registry for one composable-infrastructure fabric."""

    def __init__(self, env: Environment,
                 link_params: Optional[params.LinkParams] = None,
                 scheduler: str = "fair") -> None:
        self.env = env
        self.link_params = link_params or params.LinkParams()
        self.scheduler = scheduler
        self.switches: Dict[str, FabricSwitch] = {}
        self.endpoints: Dict[str, Endpoint] = {}
        # adjacency: node name -> list of (neighbor name, egress port index
        # on this node if it is a switch else -1)
        self._adjacency: Dict[str, List[Tuple[str, int]]] = {}
        self._next_local: Dict[int, int] = {}

    # -- registration ------------------------------------------------------

    def add_switch(self, name: str, domain: int = 0,
                   scheduler: Optional[str] = None,
                   port_latency_ns: float = params.SWITCH_PORT_LATENCY_NS,
                   scheduler_capacity: int = 64,
                   ingress_buffer: int = 128) -> FabricSwitch:
        self._check_new_name(name)
        switch = FabricSwitch(
            self.env, name=name, domain=domain,
            port_latency_ns=port_latency_ns,
            scheduler=scheduler or self.scheduler,
            scheduler_capacity=scheduler_capacity,
            ingress_buffer=ingress_buffer)
        self.switches[name] = switch
        self._adjacency[name] = []
        return switch

    def add_endpoint(self, name: str, domain: int = 0) -> Endpoint:
        self._check_new_name(name)
        local = self._next_local.get(domain, 0)
        if local >= MAX_PBR_IDS:
            raise ValueError(f"domain {domain} exhausted its 4096 PBR IDs")
        self._next_local[domain] = local + 1
        endpoint = Endpoint(name=name, pbr=PbrId(domain=domain, local=local))
        self.endpoints[name] = endpoint
        self._adjacency[name] = []
        return endpoint

    def _check_new_name(self, name: str) -> None:
        if name in self._adjacency:
            kind = "switch" if name in self.switches else "endpoint"
            raise ValueError(
                f"duplicate node name {name!r}: already registered as "
                f"a {kind} in this topology")

    def _switch(self, name: str) -> FabricSwitch:
        switch = self.switches.get(name)
        if switch is None:
            known = ", ".join(sorted(self.switches)) or "(none)"
            raise ValueError(f"unknown switch {name!r}; "
                             f"registered switches: {known}")
        return switch

    def _endpoint(self, name: str) -> Endpoint:
        endpoint = self.endpoints.get(name)
        if endpoint is None:
            known = ", ".join(sorted(self.endpoints)) or "(none)"
            raise ValueError(f"unknown endpoint {name!r}; "
                             f"registered endpoints: {known}")
        return endpoint

    # -- wiring ---------------------------------------------------------------

    def _make_link(self, name: str,
                   link_params: Optional[params.LinkParams],
                   control_lane: bool,
                   tx_queue_capacity: float) -> LinkLayer:
        return LinkLayer(self.env, link_params or self.link_params,
                         name=name,
                         control_lane=control_lane,
                         tx_queue_capacity=tx_queue_capacity)

    def connect_endpoint(self, switch_name: str, endpoint_name: str,
                         link_params: Optional[params.LinkParams] = None,
                         role: PortRole = PortRole.DOWNSTREAM,
                         control_lane: bool = False,
                         tag_capacity: int = 256) -> TransactionPort:
        """Attach an endpoint to a switch; returns its transaction port."""
        switch = self._switch(switch_name)
        endpoint = self._endpoint(endpoint_name)
        if endpoint.port is not None:
            raise ValueError(f"endpoint {endpoint_name!r} already connected")
        to_switch = self._make_link(f"{endpoint_name}->{switch_name}",
                                    link_params, control_lane,
                                    tx_queue_capacity=float("inf"))
        to_endpoint = self._make_link(f"{switch_name}->{endpoint_name}",
                                      link_params, control_lane,
                                      tx_queue_capacity=2)
        port = switch.attach(in_link=to_switch, out_link=to_endpoint,
                             role=role, peer=endpoint_name)
        endpoint.port = TransactionPort(
            self.env, tx_link=to_switch, rx_link=to_endpoint,
            port_id=endpoint.global_id, name=endpoint_name,
            tag_capacity=tag_capacity)
        self._adjacency[switch_name].append((endpoint_name, port.index))
        self._adjacency[endpoint_name].append((switch_name, -1))
        return endpoint.port

    def connect_switches(self, a_name: str, b_name: str,
                         link_params: Optional[params.LinkParams] = None,
                         control_lane: bool = False) -> None:
        """Wire two switches with a bidirectional link pair.

        Within one domain this is a PBR link; across domains it is an
        HBR link (the distinction matters to the fabric manager, which
        installs prefix routes across it).
        """
        a = self._switch(a_name)
        b = self._switch(b_name)
        a_to_b = self._make_link(f"{a_name}->{b_name}", link_params,
                                 control_lane, tx_queue_capacity=2)
        b_to_a = self._make_link(f"{b_name}->{a_name}", link_params,
                                 control_lane, tx_queue_capacity=2)
        port_on_a = a.attach(in_link=b_to_a, out_link=a_to_b,
                             role=PortRole.DOWNSTREAM, peer=b_name)
        port_on_b = b.attach(in_link=a_to_b, out_link=b_to_a,
                             role=PortRole.UPSTREAM, peer=a_name)
        self._adjacency[a_name].append((b_name, port_on_a.index))
        self._adjacency[b_name].append((a_name, port_on_b.index))

    # -- queries ------------------------------------------------------------

    def neighbors(self, name: str) -> List[Tuple[str, int]]:
        return list(self._adjacency[name])

    def port_of(self, name: str) -> TransactionPort:
        port = self._endpoint(name).port
        if port is None:
            raise ValueError(f"endpoint {name!r} is not connected")
        return port

    def is_hbr_link(self, a_name: str, b_name: str) -> bool:
        a, b = self.switches.get(a_name), self.switches.get(b_name)
        return (a is not None and b is not None and a.domain != b.domain)

    def domains(self) -> List[int]:
        seen = {s.domain for s in self.switches.values()}
        seen.update(e.pbr.domain for e in self.endpoints.values())
        return sorted(seen)

    def nodes(self) -> Iterator[str]:
        return iter(self._adjacency)

    def describe(self) -> str:
        lines = [f"fabric topology: {len(self.switches)} switches, "
                 f"{len(self.endpoints)} endpoints, "
                 f"domains {self.domains()}"]
        for switch in self.switches.values():
            lines.append(switch.describe())
        for endpoint in self.endpoints.values():
            lines.append(f"endpoint {endpoint.name} @ {endpoint.pbr!r}")
        return "\n".join(lines)
