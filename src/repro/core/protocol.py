"""The PROP protocol engine.

Drives the per-node state machine of Section 3.2 on top of the
discrete-event simulator:

* Every node joins, runs a **warm-up** of ``MAX_INIT_TRIAL`` probe cycles
  at the fixed ``INIT_TIMER`` period, then enters **maintenance** where
  the probe period follows the Markov-chain timer (double on failure,
  reset on success or at the cap).
* A probe cycle at node ``u``: pick the first hop ``s`` from the
  neighborQ, random-walk ``nhops`` hops to the candidate ``v``, evaluate
  Var for the configured policy, and execute the exchange when
  ``Var > MIN_VAR``.  Queue and timer are updated by the outcome.
* Churn notifications (:meth:`PROPEngine.notify_membership_change`)
  reset the timer and push the new neighbor to the queue front.

Message accounting matches the Section 4.3 model: each probe cycle costs
``nhops`` walk messages plus the information-collection messages (``c_u +
c_v`` latency probes for PROP-G, ``2 m`` for PROP-O), and a successful
exchange additionally notifies every affected routing-table holder.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.core.config import PROPConfig
from repro.core.exchange import execute_prop_g, execute_prop_o
from repro.core.neighbor_queue import NeighborQueue
from repro.core.timer_policy import MarkovTimer
from repro.core.varcalc import evaluate_prop_g, select_prop_o
from repro.core.walk import random_walk
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.obs.events import ExchangeCommitEvent, ProbeEvent, VarCollectEvent
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.overlay.base import Overlay

__all__ = ["PROPEngine", "ProtocolCounters", "NodeState"]

_WARMUP = 0
_MAINTENANCE = 1


@dataclass(frozen=True)
class ExchangeRecord:
    """One executed peer-exchange, for trace analysis."""

    time: float
    u: int
    v: int
    var: float
    policy: str
    traded: int  # neighbors moved per side (deg for G, m' for O)


@dataclass
class ProtocolCounters:
    """Message and outcome tallies for the overhead analysis (§4.3)."""

    probes: int = 0
    exchanges: int = 0
    walk_messages: int = 0
    collect_messages: int = 0
    notify_messages: int = 0
    var_history: list[float] = field(default_factory=list)
    exchange_log: list[ExchangeRecord] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return self.walk_messages + self.collect_messages + self.notify_messages

    @property
    def success_rate(self) -> float:
        return self.exchanges / self.probes if self.probes else 0.0

    def messages_per_probe(self) -> float:
        return self.total_messages / self.probes if self.probes else 0.0


@dataclass
class NodeState:
    """Per-slot protocol state."""

    queue: NeighborQueue
    timer: MarkovTimer
    phase: int = _WARMUP
    trials: int = 0
    probes_until_first_exchange: int | None = None


class PROPEngine:
    """Event-driven PROP deployment over one overlay.

    Parameters
    ----------
    overlay:
        The overlay to optimize (mutated in place).
    config:
        Protocol parameters; ``config.policy`` selects PROP-G or PROP-O.
    sim:
        The discrete-event simulator to schedule probe cycles on.
    rngs:
        Registry supplying the engine's random streams.
    jitter:
        Nodes start their first probe uniformly inside
        ``[0, jitter * init_timer)`` to avoid a synchronized thundering
        herd (real deployments join at different times).
    tracer:
        Event sink for the observability plane; defaults to the
        zero-cost :data:`~repro.obs.trace.NULL_TRACER`.
    """

    def __init__(
        self,
        overlay: Overlay,
        config: PROPConfig,
        sim: Simulator,
        rngs: RngRegistry,
        *,
        jitter: float = 1.0,
        tracer: TracerLike | None = None,
    ) -> None:
        if config.policy == "O" and not overlay.supports_rewiring:
            raise ValueError(
                "PROP-O rewires logical edges, which would corrupt a "
                f"structure-derived overlay ({type(overlay).__name__}); "
                "deploy PROP-G on structured overlays (the paper's "
                "applicability matrix)"
            )
        self.overlay = overlay
        self.config = config
        self.sim = sim
        self.rng = rngs.stream("prop:engine")
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.counters = ProtocolCounters()
        self._m_default: int | None = (
            None if config.m is not None else int(overlay.min_degree())
        )
        self.nodes: list[NodeState] = []
        for slot in range(overlay.n_slots):
            queue = NeighborQueue(overlay.neighbor_list(slot), self.rng)
            timer = MarkovTimer(config.init_timer, config.max_timer)
            self.nodes.append(NodeState(queue=queue, timer=timer))
        self._jitter = max(0.0, jitter)
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Schedule the first probe of every node."""
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        for slot in range(self.overlay.n_slots):
            delay = float(self.rng.random()) * self._jitter * self.config.init_timer
            self.sim.schedule(delay, self._probe_cycle, slot)

    @property
    def m(self) -> int:
        """Effective PROP-O exchange size (config.m or δ(G) at start)."""
        if self.config.m is not None:
            return self.config.m
        assert self._m_default is not None  # set in __init__ when config.m is None
        return self._m_default

    # -- probe cycle -------------------------------------------------------

    def _probe_cycle(self, u: int) -> None:
        success = self._attempt_exchange(u, self.nodes[u])
        self._finish_cycle(u, self.sim.now, s=None, success=success)

    def _finish_cycle(self, u: int, fire_time: float, *, s: int | None,
                      success: bool) -> None:
        """Queue feedback for ``s`` (when given), phase/timer bookkeeping,
        and the next probe pinned to ``fire_time + delay``.

        Both engines end every cycle here; pinning to the fire time (not
        the resolution time) keeps the message plane's fire times aligned
        with the inline engine (the determinism bridge).
        """
        state = self.nodes[u]
        if s is not None:
            (state.queue.on_success if success else state.queue.on_failure)(s)
        # The first-exchange trial count is recorded *before* the warm-up
        # -> maintenance transition: an exchange landing on the final
        # warm-up trial is a warm-up exchange (trial MAX_INIT_TRIAL), not
        # a post-warm-up one.
        if state.phase == _WARMUP:
            state.trials += 1
            if success:
                state.timer.on_success()
                if state.probes_until_first_exchange is None:
                    state.probes_until_first_exchange = state.trials
            if state.trials >= self.config.max_init_trial:
                state.phase = _MAINTENANCE
            delay = self.config.init_timer
        else:
            delay = state.timer.on_success() if success else state.timer.on_failure()
            if success and state.probes_until_first_exchange is None:
                state.probes_until_first_exchange = -1
        self.sim.schedule_at(max(self.sim.now, fire_time + delay), self._probe_cycle, u)

    def _attempt_exchange(self, u: int, state: NodeState) -> bool:
        overlay = self.overlay
        cfg = self.config
        state.queue.sync(overlay.neighbor_list(u))
        if len(state.queue) == 0:
            return False
        s = state.queue.select()
        self.counters.probes += 1
        if self.tracer.enabled:
            self.tracer.emit(ProbeEvent, u=u, s=s, cycle=self.counters.probes)

        if cfg.random_probe:
            v = int(self.rng.integers(0, overlay.n_slots - 1))
            if v >= u:
                v += 1
            path = [u, v]
            self.counters.walk_messages += 1
        else:
            v, path = random_walk(overlay, u, s, cfg.nhops, self.rng)
            self.counters.walk_messages += len(path) - 1
            if v == u:
                state.queue.on_failure(s)
                return False

        if not overlay.exchange_compatible(u, v, cfg.policy):
            state.queue.on_failure(s)
            return False

        success = False
        traded = 0
        if cfg.policy == "G":
            self.counters.collect_messages += overlay.degree(u) + overlay.degree(v)
            var = evaluate_prop_g(overlay, u, v)
            if var > cfg.min_var:
                traded = max(overlay.degree(u), overlay.degree(v))
                self.counters.notify_messages += execute_prop_g(overlay, u, v)
                self._after_exchange(u, v)
                success = True
        else:
            give_u, give_v, var = select_prop_o(
                overlay, u, v, self.m, forbidden=set(path),
                selection=cfg.selection, rng=self.rng,
            )
            self.counters.collect_messages += 2 * self.m
            if give_u and var > cfg.min_var:
                traded = len(give_u)
                self.counters.notify_messages += execute_prop_o(overlay, u, v, give_u, give_v)
                self._after_exchange(u, v, moved=give_u + give_v)
                success = True
        if success:
            self.counters.exchange_log.append(
                ExchangeRecord(
                    time=self.sim.now, u=u, v=v, var=var,
                    policy=cfg.policy, traded=traded,
                )
            )

        self.counters.var_history.append(var)
        if self.tracer.enabled:
            self.tracer.emit(VarCollectEvent, u=u, v=v, cycle=self.counters.probes,
                             var=float(var), policy=cfg.policy)
            if success:
                # the inline engine commits instantaneously: no 2PC, xid=-1
                self.tracer.emit(ExchangeCommitEvent, xid=-1, u=u, v=v,
                                 var=float(var), traded=traded)
        if success:
            self.counters.exchanges += 1
            state.queue.on_success(s)
            # the counterpart also treats the exchange as its own success
            self.nodes[v].timer.on_success()
        else:
            state.queue.on_failure(s)
        return success

    def _after_exchange(self, u: int, v: int, moved: list[int] | None = None) -> None:
        """Resynchronize queues of the pair and of every affected neighbor."""
        overlay = self.overlay
        self.nodes[u].queue.sync(overlay.neighbor_list(u))
        self.nodes[v].queue.sync(overlay.neighbor_list(v))
        if moved is None:
            # PROP-G: u and v keep the same *slot* neighbors, but those
            # neighbors now face different hosts — resetting their timers
            # mirrors "notify their neighbors … and recalculate the sums".
            affected = set(overlay.neighbor_list(u)) | set(overlay.neighbor_list(v))
        else:
            affected = set(moved)
        for w in sorted(affected - {u, v}):
            self.nodes[w].queue.sync(overlay.neighbor_list(w))

    # -- churn interface ---------------------------------------------------

    def notify_membership_change(self, slot: int, new_neighbors: list[int] | None = None) -> None:
        """A neighbor of ``slot`` was replaced (churn).

        Section 3.2: "the value of timer will be reset to INIT_TIMER and
        the new neighbors will be added into the front of neighborq with
        a maximum priority value".
        """
        state = self.nodes[slot]
        state.timer.on_churn()
        state.queue.sync(self.overlay.neighbor_list(slot))
        if new_neighbors:
            for s in new_neighbors:
                if self.overlay.has_edge(slot, s):
                    state.queue.on_new_neighbor(s)

    def reset_slot(self, slot: int) -> None:
        """A new host occupied ``slot`` (churn replacement): restart it."""
        state = self.nodes[slot]
        state.queue = NeighborQueue(self.overlay.neighbor_list(slot), self.rng)
        state.timer = MarkovTimer(self.config.init_timer, self.config.max_timer)
        state.phase = _WARMUP
        state.trials = 0
        for w in self.overlay.neighbor_list(slot):
            self.notify_membership_change(w, [slot])
