"""The assembled offload engine with pipeline timing (Fig. 5 / Fig. 6).

This is the component ROCoCoTM's runtime talks to: it wraps
:class:`ValidationManager` (the functional decision) with the timing
model of the fully-pipelined FPGA datapath and the CCI link:

1. the request (read+write addresses, one cacheline per 8 addresses)
   crosses the link (~200 ns + streaming beats);
2. the detector consumes one cacheline of addresses per cycle against
   all W signatures in parallel, so a transaction occupies the
   pipeline for ``ceil(n_addresses / 8)`` cycles — the initiation
   interval between back-to-back validations;
3. the manager adds two cycles (cycle test, matrix/bookkeeping
   update+broadcast);
4. the verdict crosses back (~400 ns).

Because the pipeline never back-pressures the pull queue (§5.1),
requests queue *inside* the engine when they arrive faster than the
initiation interval; the paper's claim quantified in Fig. 6(d)/Fig. 11
is that even then the amortized per-transaction validation time stays
well under a microsecond — which this model lets the benchmarks check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..signatures import SignatureConfig
from .clock import ClockDomain
from .link import ADDRESSES_PER_CACHELINE, InterconnectLink, harp2_cci_link
from .manager import ValidationManager, ValidationRequest, Verdict

MANAGER_CYCLES = 2  # cycle test + matrix/bookkeeping update


@dataclass(frozen=True)
class ValidationResponse:
    """A verdict plus its complete timing breakdown (all ns)."""

    verdict: Verdict
    sent_ns: float
    arrived_ns: float
    started_ns: float
    finished_ns: float
    ready_ns: float

    @property
    def round_trip_ns(self) -> float:
        return self.ready_ns - self.sent_ns

    @property
    def queueing_ns(self) -> float:
        return self.started_ns - self.arrived_ns


class FpgaValidationEngine:
    """Transaction-level model of the pipelined ROCoCo validator."""

    def __init__(
        self,
        window: int = 64,
        config: Optional[SignatureConfig] = None,
        clock: Optional[ClockDomain] = None,
        link: Optional[InterconnectLink] = None,
    ):
        self.manager = ValidationManager(config, window)
        self.clock = clock or ClockDomain()
        self.link = link or harp2_cci_link()
        #: the owning backend's emission surface, wired by
        #: ``RococoTMBackend.attach`` — anything satisfying
        #: :class:`repro.runtime.driver.Emitter` (an EventBus, a full
        #: Driver), or None when driven standalone.  The base engine
        #: publishes nothing itself; subclasses (the chaos engine) use
        #: it for their wants()-gated fault streams.
        self.bus = None
        self._pipeline_free_ns = 0.0
        self.stats_busy_cycles = 0
        self.stats_requests = 0
        self.total_round_trip_ns = 0.0
        self.total_queueing_ns = 0.0

    # ------------------------------------------------------------------
    def occupancy_cycles(self, request: ValidationRequest) -> int:
        """Initiation interval: detector cachelines for this request."""
        return max(1, math.ceil(request.n_addresses / ADDRESSES_PER_CACHELINE))

    def submit(self, request: ValidationRequest, now_ns: float) -> ValidationResponse:
        """Validate *request* sent from the CPU at *now_ns*.

        Requests must be submitted in non-decreasing time order (the
        pull queue is FIFO); the engine models queueing internally.
        """
        lines = self.link.lines_for_addresses(max(1, request.n_addresses))
        arrived = now_ns + self.link.request_ns(lines)
        started = max(self.clock.align_up(arrived), self._pipeline_free_ns)

        occupancy = self.occupancy_cycles(request)
        self._pipeline_free_ns = started + self.clock.cycles_to_ns(occupancy)
        finished = started + self.clock.cycles_to_ns(occupancy + MANAGER_CYCLES)
        ready = finished + self.link.response_ns()

        verdict = self.manager.validate(request)
        self.stats_busy_cycles += occupancy + MANAGER_CYCLES
        self.stats_requests += 1
        self.total_round_trip_ns += ready - now_ns
        self.total_queueing_ns += started - arrived

        return ValidationResponse(
            verdict=verdict,
            sent_ns=now_ns,
            arrived_ns=arrived,
            started_ns=started,
            finished_ns=finished,
            ready_ns=ready,
        )

    def certify(self, request: ValidationRequest, now_ns: float) -> ValidationResponse:
        """Cross-shard prepare: same datapath timing as :meth:`submit`
        — link crossing, pipeline queueing, detector occupancy, manager
        cycles, verdict return — but the decision is the *non-mutating*
        :meth:`ValidationManager.certify` freshness check.  A prepare
        occupies the pipeline like any validation (the detector still
        streams the request's cachelines), so local single-shard
        traffic queues behind it exactly as Fig. 5 would."""
        lines = self.link.lines_for_addresses(max(1, request.n_addresses))
        arrived = now_ns + self.link.request_ns(lines)
        started = max(self.clock.align_up(arrived), self._pipeline_free_ns)

        occupancy = self.occupancy_cycles(request)
        self._pipeline_free_ns = started + self.clock.cycles_to_ns(occupancy)
        finished = started + self.clock.cycles_to_ns(occupancy + MANAGER_CYCLES)
        ready = finished + self.link.response_ns()

        verdict = self.manager.certify(request)
        self.stats_busy_cycles += occupancy + MANAGER_CYCLES
        self.stats_requests += 1
        self.total_round_trip_ns += ready - now_ns
        self.total_queueing_ns += started - arrived

        return ValidationResponse(
            verdict=verdict,
            sent_ns=now_ns,
            arrived_ns=arrived,
            started_ns=started,
            finished_ns=finished,
            ready_ns=ready,
        )

    # ------------------------------------------------------------------
    @property
    def mean_round_trip_ns(self) -> float:
        return self.total_round_trip_ns / self.stats_requests if self.stats_requests else 0.0

    @property
    def mean_queueing_ns(self) -> float:
        return self.total_queueing_ns / self.stats_requests if self.stats_requests else 0.0

    @property
    def throughput_limit_per_us(self) -> float:
        """Upper bound on validations per microsecond for 8-address
        transactions — the pipelining headroom of Fig. 6(d)."""
        cycles = max(1, math.ceil(8 / ADDRESSES_PER_CACHELINE))
        return 1000.0 / self.clock.cycles_to_ns(cycles)
