"""Cluster wiring: build a complete Dynamoth deployment in one simulator.

:class:`DynamothCluster` assembles the whole architecture of Figure 1:

* ``n`` pub/sub server nodes, each with a co-located Local Load Analyzer
  and Dispatcher;
* one Load Balancer node on ``config.rebalance_policy`` (the paper's
  algorithms, its consistent-hashing comparator, ...), or none for
  manually planned micro-benchmarks;
* the network transport with WAN latency injection for clients and a cloud
  LAN between infrastructure nodes;
* an elastic server pool: the balancer can rent additional servers (ready
  after ``spawn_delay_s``) and decommission drained ones.

This is the main entry point of the library::

    cluster = DynamothCluster(seed=42, initial_servers=2)
    client = cluster.create_client("alice")
    client.subscribe("room:1", lambda ch, body, env: print(body))
    client.publish("room:1", {"hello": "world"}, payload_size=64)
    cluster.run_for(5.0)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.broker.config import BrokerConfig
from repro.broker.server import PubSubServer
from repro.core.balancer import LoadBalancer
from repro.core.client import DynamothClient
from repro.core.config import DynamothConfig
from repro.core.dispatcher import Dispatcher, dispatcher_id
from repro.core.lla import LocalLoadAnalyzer
from repro.core.messages import PlanPush, ServerSpawned
from repro.core.plan import ChannelMapping, Plan
from repro.core.reliability import BrokerReliability, reliability_config_from
from repro.net.latency import LatencyModel
from repro.net.transport import Transport
from repro.obs.sla import SlaMonitor
from repro.obs.trace import (
    NULL_TRACER,
    DeliveryEvent,
    LlaStallEvent,
    ServerCrashEvent,
    ServerRestartEvent,
    Tracer,
)
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: Balancer selection: the balancer on ``config.rebalance_policy``, or no
#: balancer (static plans).
BALANCER_DYNAMOTH = "dynamoth"
BALANCER_NONE = "none"

LB_NODE_ID = "load-balancer"


class DynamothCluster:
    """A fully wired Dynamoth deployment inside one simulation."""

    def __init__(
        self,
        *,
        seed: int = 0,
        config: Optional[DynamothConfig] = None,
        broker_config: Optional[BrokerConfig] = None,
        initial_servers: int = 1,
        balancer: str = BALANCER_DYNAMOTH,
        wan_model: Optional[LatencyModel] = None,
        lan_model: Optional[LatencyModel] = None,
        tracer: Optional[Tracer] = None,
    ):
        if initial_servers < 1:
            raise ValueError("initial_servers must be >= 1")
        self.config = config if config is not None else DynamothConfig()
        self.broker_config = broker_config if broker_config is not None else BrokerConfig()
        #: reliability-layer snapshot shared by all brokers and clients;
        #: ``None`` (plain at_most_once) keeps every component inert.
        self.reliability_config = reliability_config_from(self.config)
        #: server id -> boot count: a restarted id gets a new epoch so its
        #: fresh sequence stream is never mistaken for a regression.
        self._boot_counts: Dict[str, int] = {}
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        #: shared flight recorder; the no-op NULL_TRACER unless one is
        #: passed in, so untraced runs pay only guard checks.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            self.tracer.attach_kernel(self.sim)
        #: Live SLA monitor (observability only); built when tracing is on
        #: and the config sets a threshold.  It rides the tracer's observer
        #: hook, called for every DeliveryEvent as it is emitted.
        self.sla_monitor: Optional[SlaMonitor] = None
        if self.tracer.enabled and self.config.sla_threshold_s is not None:
            self.sla_monitor = SlaMonitor(self.tracer, self.config.sla_threshold_s)
            self.tracer.add_observer(self.sla_monitor.on_delivery, DeliveryEvent)
        self.transport = Transport(
            self.sim,
            self.rng.stream("net"),
            lan_model=lan_model,
            wan_model=wan_model,
        )

        self.servers: Dict[str, PubSubServer] = {}
        self.dispatchers: Dict[str, Dispatcher] = {}
        self.llas: Dict[str, LocalLoadAnalyzer] = {}
        self.clients: Dict[str, DynamothClient] = {}
        self._server_counter = 0
        self._decommissioned: List[str] = []
        #: ids crashed via :meth:`crash_server` and not yet restarted
        self.crashed_servers: Set[str] = set()
        #: server-hours accounting for the cloud cost model: id -> start
        self._server_started: Dict[str, float] = {}
        self._server_stopped: Dict[str, float] = {}
        #: rental seconds of closed intervals whose id was later reused
        #: (crash -> restart); keeps :meth:`server_seconds` correct
        self._server_closed_seconds = 0.0

        bootstrap_ids = [self._next_server_id() for __ in range(initial_servers)]
        self.plan = Plan.bootstrap(bootstrap_ids)

        self.balancer_kind = balancer
        self.balancer: Optional[LoadBalancer] = None
        if balancer == BALANCER_DYNAMOTH:
            self.balancer = LoadBalancer(
                self.sim,
                LB_NODE_ID,
                self.config,
                self.plan,
                self,
                self.broker_config.nominal_egress_bps,
                self.rng.stream("balancer"),
                tracer=self.tracer,
            )
        elif balancer != BALANCER_NONE:
            raise ValueError(f"unknown balancer kind: {balancer!r}")

        if self.balancer is not None:
            self.transport.register(self.balancer)
            self._wire_tap(self.balancer)
            self.balancer.sla_monitor = self.sla_monitor

        for server_id in bootstrap_ids:
            self._materialize_server(server_id)

        if self.balancer is not None:
            self.balancer.start()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _wire_tap(self, actor: Actor) -> None:
        """Attach the tracer's per-message tap when tracing is enabled."""
        if self.tracer.enabled:
            actor.tap = self.tracer.message_tap

    # ------------------------------------------------------------------
    # Server pool
    # ------------------------------------------------------------------
    def _next_server_id(self) -> str:
        self._server_counter += 1
        return f"pub{self._server_counter}"

    def _materialize_server(self, server_id: str) -> PubSubServer:
        """Create and wire a pub/sub server node plus its LLA/dispatcher."""
        boot = self._boot_counts.get(server_id, 0) + 1
        self._boot_counts[server_id] = boot
        reliability = None
        if self.reliability_config is not None and self.reliability_config.reliable:
            reliability = BrokerReliability(self.reliability_config, epoch=boot)
        server = PubSubServer(
            self.sim,
            server_id,
            self.broker_config,
            tracer=self.tracer,
            reliability=reliability,
        )
        port = self.transport.register(server, self.broker_config.actual_egress_bps)
        self.servers[server_id] = server
        self._wire_tap(server)

        current_plan = self.balancer.plan if self.balancer is not None else self.plan
        dispatcher = Dispatcher(
            self.sim,
            server,
            current_plan,
            self.rng.stream(f"dispatcher:{server_id}"),
            plan_entry_timeout_s=self.config.plan_entry_timeout_s,
            tracer=self.tracer,
        )
        self.transport.register(dispatcher)
        self.dispatchers[server_id] = dispatcher
        self._wire_tap(dispatcher)

        lla = LocalLoadAnalyzer(
            self.sim,
            server,
            port,
            LB_NODE_ID,
            report_interval_s=self.config.lla_report_interval_s,
            tracer=self.tracer,
        )
        self.transport.register(lla)
        self.llas[server_id] = lla
        self._wire_tap(lla)
        self._server_started[server_id] = self.sim.now
        if self.balancer is not None:
            lla.start()
        return server

    # --- CloudOperations protocol (called by the balancer) ---
    def request_spawn(self) -> None:
        """Rent a server; it boots after ``spawn_delay_s``."""
        server_id = self._next_server_id()
        self.sim.schedule(self.config.spawn_delay_s, self._finish_spawn, server_id)

    def _finish_spawn(self, server_id: str) -> None:
        self._materialize_server(server_id)
        if self.balancer is not None:
            # Loopback control message: the cloud tells the LB it is ready.
            self.balancer.receive(ServerSpawned(server_id), "cloud")

    def request_decommission(self, server_id: str) -> None:
        """Shut a drained server down after the forwarding grace window."""
        grace = self.config.plan_entry_timeout_s + 2.0
        self.sim.schedule(grace, self._finish_decommission, server_id)

    def _finish_decommission(self, server_id: str) -> None:
        server = self.servers.pop(server_id, None)
        if server is None:
            return
        self.llas.pop(server_id).stop()
        dispatcher = self.dispatchers.pop(server_id)
        server.close_all_connections()
        server.shutdown()
        dispatcher.shutdown()
        self.transport.unregister(server_id)
        self.transport.unregister(dispatcher.node_id)
        self.transport.unregister(f"lla@{server_id}")
        self._decommissioned.append(server_id)
        self._server_stopped[server_id] = self.sim.now

    # ------------------------------------------------------------------
    # Fault injection surface (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def colocated_node_ids(self, server_id: str) -> Tuple[str, str, str]:
        """All transport node ids living on one server machine."""
        return (server_id, dispatcher_id(server_id), f"lla@{server_id}")

    def crash_server(self, server_id: str) -> PubSubServer:
        """Hard-crash a server node (and its co-located LLA/dispatcher).

        Unlike a decommission there is no connection teardown -- a crashed
        machine sends no FIN.  Clients and peers simply stop hearing from
        it; in-flight messages to it are dropped on arrival.  Returns the
        dead server object for post-mortem inspection.
        """
        server = self.servers.pop(server_id, None)
        if server is None:
            raise KeyError(f"unknown or already-dead server: {server_id}")
        lla = self.llas.pop(server_id)
        dispatcher = self.dispatchers.pop(server_id)
        lla.stop()
        server.shutdown()
        dispatcher.shutdown()
        lla.shutdown()
        for node_id in self.colocated_node_ids(server_id):
            self.transport.unregister(node_id)
        self.crashed_servers.add(server_id)
        self._server_stopped[server_id] = self.sim.now
        if self.tracer.enabled:
            self.tracer.emit(ServerCrashEvent(self.sim.now, server_id))
        return server

    def restart_server(self, server_id: str) -> PubSubServer:
        """Boot a fresh, empty server under a previously crashed id.

        State (subscriptions, buffers) is *not* recovered -- clients
        resubscribe through the normal recovery path.  The balancer learns
        about the comeback via the cloud's ready notification.
        """
        if server_id in self.servers:
            raise ValueError(f"server {server_id} is already running")
        if server_id not in self.crashed_servers:
            raise KeyError(f"server {server_id} was never crashed")
        self.crashed_servers.discard(server_id)
        # Fold the finished rental interval into the closed accumulator so
        # server_seconds() stays correct when the id is reused.
        started = self._server_started.pop(server_id, None)
        stopped = self._server_stopped.pop(server_id, None)
        if started is not None and stopped is not None:
            self._server_closed_seconds += max(0.0, stopped - started)
        server = self._materialize_server(server_id)
        if self.tracer.enabled:
            self.tracer.emit(ServerRestartEvent(self.sim.now, server_id))
        if self.balancer is not None:
            self.balancer.receive(ServerSpawned(server_id), "cloud")
        return server

    def stall_lla(self, server_id: str) -> None:
        """Freeze a server's LLA: its load reports stop (gray failure)."""
        self.llas[server_id].stop()
        if self.tracer.enabled:
            self.tracer.emit(LlaStallEvent(self.sim.now, server_id, True))

    def resume_lla(self, server_id: str) -> None:
        self.llas[server_id].start()
        if self.tracer.enabled:
            self.tracer.emit(LlaStallEvent(self.sim.now, server_id, False))

    def all_client_ids(self) -> List[str]:
        """Currently connected clients (used by the eager-push strawman)."""
        return list(self.clients)

    def server_seconds(self, until: Optional[float] = None) -> float:
        """Total rented server time -- the cloud-cost metric.

        Implements the cost-model direction of the paper's future work:
        "integrating a cost model in our load balancing model in order to
        minimize Cloud-related costs".
        """
        horizon = self.sim.now if until is None else until
        total = self._server_closed_seconds
        for server_id, started in self._server_started.items():
            stopped = self._server_stopped.get(server_id, horizon)
            total += max(0.0, min(stopped, horizon) - started)
        return total

    @property
    def server_count(self) -> int:
        return len(self.servers)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def create_client(self, client_id: str) -> DynamothClient:
        client = DynamothClient(
            self.sim,
            client_id,
            self.plan.ring,
            self.rng,
            config=self.config,
            tracer=self.tracer,
            reliability=self.reliability_config,
        )
        self.transport.register(client)
        self.clients[client_id] = client
        self._wire_tap(client)
        return client

    def remove_client(self, client_id: str) -> None:
        client = self.clients.pop(client_id, None)
        if client is None:
            return
        client.disconnect()
        self.transport.unregister(client_id)

    # ------------------------------------------------------------------
    # Static plans (micro-benchmarks, Experiment 1)
    # ------------------------------------------------------------------
    def set_static_mapping(self, channel: str, mapping: ChannelMapping) -> None:
        """Force a channel mapping and push the plan to all dispatchers.

        Only meaningful with ``balancer=BALANCER_NONE`` -- an active
        balancer would override it on its next rebalance.
        """
        if self.balancer is not None:
            raise RuntimeError("static mappings require balancer='none'")
        self.plan = self.plan.evolve(mappings={channel: mapping})
        push = PlanPush(self.plan)
        for server_id in self.servers:
            dispatcher = self.dispatchers[server_id]
            dispatcher.receive(push, LB_NODE_ID)

    def current_plan(self) -> Plan:
        return self.balancer.plan if self.balancer is not None else self.plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, time: float) -> None:
        self.sim.run_until(time)

    def run_for(self, duration: float) -> None:
        self.sim.run_until(self.sim.now + duration)
