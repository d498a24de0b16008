"""Validation hot-path microbench: vectorized vs reference (docs/PERF.md).

PR 8 made the scheduler O(log T), so the dominant per-commit cost is
the validation pipeline itself: bloom bit positions, per-address query
masks, the W-way conflict compare, and the commit-time signature
bookkeeping.  This benchmark drives :class:`ValidationManager.validate`
directly — no simulator, no timing model — so the measured quantity is
*validations per wall-clock second* through the decision path alone.

Two implementations run the same request stream:

* ``reference`` — the pre-vectorization ``ConflictDetector`` kept
  verbatim below (per-address Python loops, uncached bit positions,
  array-shift eviction, per-commit re-hash of every address);
* ``live``      — whatever :mod:`repro.hw` currently ships (the
  address memo, bit-sliced compare, ring buffer, and incremental
  signatures).

Both are decision-identical by construction and the sweep asserts it:
the verdict tallies of the two runs must match exactly (the
verdict-bit-identity invariant, DESIGN.md).  Speedup is measured
in-process on the same interpreter, so the 2x acceptance gate is
robust to machine noise; the committed absolute rates
(``benchmarks/BENCH_validation_baseline.json``, recorded on the
pre-optimization tree) are only compared as a non-gating drift report
in CI.

Request signatures are built *outside* the timed loop: in the real
runtime the CPU accumulates read/write signatures while the
transaction executes (Algorithm 1), so at commit time they are already
in hand — re-deriving them per commit is exactly the redundancy the
optimization removes.

Knobs (env):

* ``REPRO_BENCH_VAL_WINDOWS`` — space-separated window grid
  (default ``16 64 256``; the bit-sliced live detector's cost does
  not grow with W, the reference's does);
* ``REPRO_BENCH_VAL_TXNS``    — transactions per measurement
  (default 4000; CI's perf-smoke uses a smaller value);
* ``REPRO_BENCH_VAL_ROUNDS``  — measurement rounds per cell; each
  implementation reports its best-of-N rate (default 3), which is
  what makes the speedup gate robust to scheduler noise;
* ``REPRO_BENCH_VAL_JSON``    — output path (default
  ``BENCH_validation.json`` in the working directory).
"""

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.hw import ValidationManager, ValidationRequest
from repro.signatures import SignatureConfig

DEFAULT_WINDOWS = (16, 64, 256)
DEFAULT_TXNS = 4000
DEFAULT_ROUNDS = 3
#: acceptance floor at the paper's W=64 window on the ssca2-like mix.
TARGET_SPEEDUP_AT_64 = 2.0
GATE_MIX = "ssca2"
GATE_WINDOW = 64

_WORD = 64

#: does the installed ValidationRequest carry incremental signatures?
_HAS_SIGS = "read_raw" in getattr(ValidationRequest, "__dataclass_fields__", {})


# ----------------------------------------------------------------------
# The pre-vectorization detector, kept verbatim as the in-process
# oracle.  Bit positions are computed straight from the hash lanes so
# the reference keeps the pre-PR10 cost model even though the live
# SignatureConfig now memoizes them.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _RefBookkeeping:
    label: Hashable
    commit_index: int
    read_raw: int
    write_raw: int


class ReferenceConflictDetector:
    """The array-shift, per-address-loop detector of PRs 0-9."""

    def __init__(self, config: SignatureConfig, window: int):
        self.config = config
        self.window = window
        self._words = (config.bits + _WORD - 1) // _WORD
        self._read_sigs = np.zeros((window, self._words), dtype=np.uint64)
        self._write_sigs = np.zeros((window, self._words), dtype=np.uint64)
        self._entries: List[_RefBookkeeping] = []

    # -- uncached bit positions (pre-PR10 SignatureConfig.bit_positions)
    def _bit_positions(self, element: int) -> List[int]:
        width = self.config.partition_bits
        return [i * width + h(element) for i, h in enumerate(self.config.hashes)]

    def _raw_to_words(self, raw: int) -> np.ndarray:
        out = np.zeros(self._words, dtype=np.uint64)
        for i in range(self._words):
            out[i] = (raw >> (i * _WORD)) & 0xFFFFFFFFFFFFFFFF
        return out

    @property
    def resident(self) -> int:
        return len(self._entries)

    @property
    def oldest_commit_index(self) -> int:
        return self._entries[0].commit_index if self._entries else 0

    def entries(self) -> List[_RefBookkeeping]:
        return list(self._entries)

    def _query_mask(self, addresses: Sequence[int], sigs: np.ndarray) -> np.ndarray:
        n = len(self._entries)
        hit = np.zeros(n, dtype=bool)
        if n == 0:
            return hit
        live = sigs[:n]
        for addr in addresses:
            mask_words = np.zeros(self._words, dtype=np.uint64)
            for pos in self._bit_positions(addr):
                mask_words[pos // _WORD] |= np.uint64(1 << (pos % _WORD))
            hit |= ((live & mask_words) == mask_words).all(axis=1)
        return hit

    def edges(
        self, read_addrs: Sequence[int], write_addrs: Sequence[int], snapshot: int
    ) -> Tuple[int, int]:
        n = len(self._entries)
        if n == 0:
            return 0, 0
        read_hits = self._query_mask(read_addrs, self._write_sigs)
        write_hits = self._query_mask(write_addrs, self._write_sigs)
        write_hits |= self._query_mask(write_addrs, self._read_sigs)

        observed = np.fromiter(
            (e.commit_index < snapshot for e in self._entries), dtype=bool, count=n
        )
        forward = _ref_bools_to_mask(read_hits & ~observed)
        backward = _ref_bools_to_mask((read_hits & observed) | write_hits)
        return forward, backward

    def record_commit(
        self,
        label: Hashable,
        commit_index: int,
        read_addrs: Iterable[int],
        write_addrs: Iterable[int],
        read_raw=None,
        write_raw=None,
    ) -> bool:
        # Pre-PR10 behavior: ignore shipped signatures, re-hash every
        # address from scratch.
        read_sig = 0
        for addr in read_addrs:
            for pos in self._bit_positions(addr):
                read_sig |= 1 << pos
        write_sig = 0
        for addr in write_addrs:
            for pos in self._bit_positions(addr):
                write_sig |= 1 << pos
        entry = _RefBookkeeping(label, commit_index, read_sig, write_sig)

        evicted = len(self._entries) == self.window
        if evicted:
            del self._entries[0]
            self._read_sigs[:-1] = self._read_sigs[1:]
            self._write_sigs[:-1] = self._write_sigs[1:]
        slot = len(self._entries)
        self._entries.append(entry)
        self._read_sigs[slot] = self._raw_to_words(entry.read_raw)
        self._write_sigs[slot] = self._raw_to_words(entry.write_raw)
        return evicted


def _ref_bools_to_mask(bools: np.ndarray) -> int:
    mask = 0
    for i in np.nonzero(bools)[0]:
        mask |= 1 << int(i)
    return mask


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------

#: (reads, writes, address-space bits, hot-region size) per mix.  The
#: ssca2-like mix is the small-footprint low-contention graph kernel
#: the paper scales best on; the vacation-like mix stresses the
#: detector with wide read sets and a contended hot region.
MIXES = {
    "ssca2": (3, 2, 16, 0),
    "vacation": (24, 6, 14, 128),
}


def _address_stream(mix: str, txns: int, seed: int = 42):
    """Deterministic per-transaction (reads, writes, snapshot_lag)."""
    n_reads, n_writes, space_bits, hot = MIXES[mix]
    rng = random.Random(seed)
    space = 1 << space_bits
    stream = []
    for _ in range(txns):
        addrs = set()
        while len(addrs) < n_reads + n_writes:
            if hot and rng.random() < 0.1:
                addrs.add(space + rng.randrange(hot))
            else:
                addrs.add(rng.randrange(space))
        addrs = sorted(addrs)
        rng.shuffle(addrs)
        stream.append(
            (tuple(addrs[:n_reads]), tuple(addrs[n_reads:]), rng.randint(0, 4))
        )
    return stream


def _make_requests(config: SignatureConfig, stream):
    """Pre-built requests; signatures (when supported) ride along the
    way the runtime ships them — built during execution, not at
    validation time."""
    requests = []
    for label, (reads, writes, lag) in enumerate(stream):
        if _HAS_SIGS:
            requests.append(
                ValidationRequest(
                    label,
                    reads,
                    writes,
                    0,
                    read_raw=config.of(reads).raw,
                    write_raw=config.of(writes).raw,
                )
            )
        else:
            requests.append(ValidationRequest(label, reads, writes, 0))
    return requests


def _replace(request, snapshot):
    # dataclasses.replace re-runs __init__; building directly is ~2x
    # cheaper and identical for a frozen dataclass.
    if _HAS_SIGS:
        return ValidationRequest(
            request.label,
            request.read_addrs,
            request.write_addrs,
            snapshot,
            read_raw=request.read_raw,
            write_raw=request.write_raw,
        )
    return ValidationRequest(
        request.label, request.read_addrs, request.write_addrs, snapshot
    )


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def _measure(impl: str, mix: str, window: int, txns: int):
    """One timed run; returns (rate, commits, aborts)."""
    config = SignatureConfig()
    mgr = ValidationManager(config, window=window)
    if impl == "reference":
        mgr.detector = ReferenceConflictDetector(config, window)
    stream = _address_stream(mix, txns)
    requests = _make_requests(config, stream)
    lags = [lag for _, _, lag in stream]

    started = time.perf_counter()
    for request, lag in zip(requests, lags):
        snapshot = mgr.total_commits - lag
        if snapshot < 0:
            snapshot = 0
        mgr.validate(_replace(request, snapshot))
    elapsed = time.perf_counter() - started
    return txns / elapsed, mgr.stats_commits, mgr.stats_aborts


def _measure_best(mix: str, window: int, txns: int, rounds: int):
    """Best-of-``rounds`` rates for both implementations, with the
    rounds *interleaved* (ref, live, ref, live, ...) so a multi-second
    noise burst on a shared box degrades both sides rather than
    skewing the ratio; noise only ever slows a run down, so the best
    round is the honest estimate.  Verdict tallies are asserted
    identical across rounds and implementations."""
    best = {"reference": 0.0, "live": 0.0}
    tallies = {}
    for _ in range(rounds):
        for impl in ("reference", "live"):
            rate, commits, aborts = _measure(impl, mix, window, txns)
            expected = tallies.setdefault(impl, (commits, aborts))
            assert (commits, aborts) == expected, (impl, mix, window)
            best[impl] = max(best[impl], rate)
    return best, tallies


def _window_grid():
    raw = os.environ.get("REPRO_BENCH_VAL_WINDOWS", "")
    if raw.strip():
        return tuple(int(token) for token in raw.split())
    return DEFAULT_WINDOWS


def _txn_count():
    return int(os.environ.get("REPRO_BENCH_VAL_TXNS", DEFAULT_TXNS))


def _round_count():
    return int(os.environ.get("REPRO_BENCH_VAL_ROUNDS", DEFAULT_ROUNDS))


def sweep():
    """The full grid; returns the BENCH_validation.json payload."""
    txns = _txn_count()
    rounds = _round_count()
    rows = []
    for mix in sorted(MIXES):
        for window in _window_grid():
            best, tallies = _measure_best(mix, window, txns, rounds)
            ref_rate, live_rate = best["reference"], best["live"]
            ref_commits, ref_aborts = tallies["reference"]
            live_commits, live_aborts = tallies["live"]
            # Verdict bit-identity: the vectorized path must decide
            # exactly what the reference decides (DESIGN.md).
            assert (live_commits, live_aborts) == (ref_commits, ref_aborts), (
                mix,
                window,
                (ref_commits, ref_aborts),
                (live_commits, live_aborts),
            )
            rows.append(
                {
                    "mix": mix,
                    "window": window,
                    "txns": txns,
                    "commits": live_commits,
                    "aborts": live_aborts,
                    "reference_val_per_sec": round(ref_rate, 1),
                    "live_val_per_sec": round(live_rate, 1),
                    "speedup": round(live_rate / ref_rate, 3),
                }
            )
    return {
        "benchmark": "validation_hotpath",
        "unit": "validations per wall-clock second",
        "workload": "synthetic STAMP-like address mixes (decision path only)",
        "incremental_signatures": _HAS_SIGS,
        "target_speedup_at_64": TARGET_SPEEDUP_AT_64,
        "results": rows,
    }


def write_stamp(payload):
    path = os.environ.get("REPRO_BENCH_VAL_JSON", "BENCH_validation.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def print_report(payload):
    print(
        f"{'mix':>10} {'W':>4} {'ref val/s':>12} {'live val/s':>12} "
        f"{'speedup':>8} {'commits':>8}"
    )
    for row in payload["results"]:
        print(
            f"{row['mix']:>10} {row['window']:>4} "
            f"{row['reference_val_per_sec']:>12.0f} "
            f"{row['live_val_per_sec']:>12.0f} "
            f"{row['speedup']:>7.2f}x {row['commits']:>8}"
        )


def test_validation_hotpath_rate(benchmark):
    payload = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_report(payload)
    write_stamp(payload)
    # The vectorized path must never regress below the reference…
    for row in payload["results"]:
        assert row["speedup"] > 0.8, row
    # …and must clear the 2x acceptance floor at W=64 on the
    # ssca2-like mix (skipped while running on a pre-PR10 tree, where
    # live *is* the reference).
    if _HAS_SIGS:
        gate = [
            r
            for r in payload["results"]
            if r["mix"] == GATE_MIX and r["window"] == GATE_WINDOW
        ]
        if gate:
            assert gate[0]["speedup"] >= TARGET_SPEEDUP_AT_64, gate[0]


def main():
    payload = sweep()
    print_report(payload)
    path = write_stamp(payload)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
