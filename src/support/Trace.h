//===- support/Trace.h - rstat event-trace ring buffer ---------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of **rstat**, the observability layer: a runtime-
/// armed, per-thread ring buffer of region lifecycle events with a
/// Chrome trace-event JSON exporter (open the file in Perfetto or
/// chrome://tracing).
///
/// Events are recorded only from the library's *cold* paths — region
/// creation/deletion, page-run grabs and frees, coalescing sweeps,
/// quarantine evictions. The allocation and write-barrier fast paths
/// carry no hooks at all, so the default build's hot code is
/// bit-identical with tracing compiled in.
///
/// Zero-cost off: every hook is a load of one constinit thread-local
/// word plus one predictable branch. The word is non-null only while
/// the calling thread holds an attached ring for the current arming
/// epoch, so a disarmed process pays exactly `load; test; jne` per
/// cold-path event site and touches no shared cache lines.
///
/// Arming model: `armTracing()` starts an epoch and attaches the
/// calling thread immediately. Other threads attach lazily at their
/// next attach point (RegionManager construction,
/// ParallelSpace::registerThread, or an explicit attachThread()) —
/// the same per-thread lazy-attach discipline production tracers use.
/// Rings are owned by a global registry, not by the threads, so events
/// recorded by a thread that has since exited survive until the next
/// arm/reset (thread churn is precisely what the traces are for).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TRACE_H
#define SUPPORT_TRACE_H

#include "support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace regions {
namespace rstat {

/// Region lifecycle events the cold paths record (the instrumentation
/// axis of the paper's §5 evaluation, live instead of post-hoc).
enum class EventKind : std::uint8_t {
  NewRegion,        ///< A = region id
  DeleteRegionOk,   ///< A = region id, B = pages freed
  DeleteRegionFail, ///< A = region id, B = residual reference count
  RunGrab,          ///< A = first page index, B = run length in pages
  RunFree,          ///< A = first page index, B = run length in pages
  CoalesceSweep,    ///< A = free runs before, B = free runs after
  QuarantineEvict,  ///< A = first page index, B = run length in pages
  ShareRegion,      ///< A = region id, B = shard index
  TryDeleteOk,      ///< A = region id, B = shard index
  TryDeleteRefused, ///< A = region id, B = 1 before the Deleting CAS, 0 after
  ResolveStale,     ///< A = region id, B = record generation observed
  ManagerQuiesced,  ///< A = manager's live region count at quiesce
  TryDeleteHandoff, ///< A = region id, B = shard index
  ResetRegion,      ///< A = retired logical id, B = pages retained
  ResetRegionFail,  ///< A = region id, B = residual reference count
  PoolAcquire,      ///< A = new/reused region id, B = 1 hit, 0 miss
  PoolRelease,      ///< A = region id, B = pages retained in the pool
  PoolTrim,         ///< A = region id, B = pages returned to the source
};

/// Stable lower-case event names (also the Chrome trace "name" field).
const char *eventName(EventKind K);

/// One recorded event: 24 bytes. TimeNs is monotonic nanoseconds since
/// the current arming epoch began.
struct TraceEvent {
  std::uint64_t TimeNs;
  std::uint64_t A;
  std::uint32_t B;
  EventKind Kind;
};

namespace detail {

/// Per-thread event ring. Owned by the global ring registry (never by
/// the recording thread): exported and reclaimed only at arm/reset
/// time, so rings of exited threads keep their events.
struct TraceRing {
  TraceEvent *Events; ///< capacity entries
  std::size_t Capacity;
  /// Total events ever recorded (mod Capacity for the slot). Written
  /// lock-free by the owning thread, read by the counters/exporter on
  /// other threads — relaxed atomic so live polls of
  /// tracedEventCount()/droppedEventCount() are race-free. (Event
  /// *payloads* are still unsynchronized: export after quiescing.)
  std::atomic<std::size_t> Head;
  std::uint32_t Tid; ///< registration order, the exported "tid"
  TraceRing *Next;   ///< registry chain
};

// The hook's entire disarmed cost: one TLS load and one branch. Null
// whenever this thread has no ring attached to the current epoch —
// constinit guarantees static zero-initialization, so cross-TU access
// is a direct TLS load with no init-on-first-use guard.
extern thread_local RGN_CONSTINIT TraceRing *GRing;

/// Out-of-line armed path: stamps the clock and appends to this
/// thread's ring (overwriting the oldest event when full).
void recordSlow(TraceRing *Ring, EventKind K, std::uint64_t A,
                std::uint32_t B);

} // namespace detail

/// The one hook cold paths call. Disarmed (the common case, and the
/// whole state of a default build at rest): one predictable branch on
/// a constinit TLS word.
RGN_ALWAYS_INLINE void traceEvent(EventKind K, std::uint64_t A = 0,
                                  std::uint32_t B = 0) {
  detail::TraceRing *Ring = detail::GRing;
  if (RGN_LIKELY(!Ring))
    return;
  detail::recordSlow(Ring, K, A, B);
}

/// True while an arming epoch is open (any thread may still attach).
bool tracingArmed();

/// Opens a tracing epoch: resets the epoch clock, discards rings from
/// any previous epoch, and attaches the calling thread. Each attached
/// thread records up to \p EventsPerThread events (oldest overwritten
/// past that; the exporter reports the overwrite count). Safe to call
/// again mid-epoch: starts a fresh epoch.
void armTracing(std::size_t EventsPerThread = 1 << 14);

/// Closes the epoch: detaches the calling thread and stops other
/// threads from attaching. Already-attached threads stop recording at
/// their next attach point; their recorded events stay exportable
/// until the next armTracing(). (Call from the controlling thread
/// after worker threads have joined for a complete cut.)
void disarmTracing();

/// Attaches the calling thread to the open epoch (no-op when disarmed
/// or already attached). RegionManager construction and
/// ParallelSpace::registerThread call this, so most threads attach
/// without explicit calls.
void attachThread();

/// Total events currently held across all rings (diagnostics/tests).
std::size_t tracedEventCount();

/// Events overwritten because some ring wrapped (coverage check).
std::size_t droppedEventCount();

/// Writes every buffered event as Chrome trace-event JSON ("trace
/// event format", the Perfetto/chrome://tracing interchange format):
/// one instant event per record, pid 1, tid = thread attach order,
/// timestamps in microseconds since the epoch began. Also derives
/// counter events ("C" phase, on a synthetic tid one past the last
/// ring) from the merged time-sorted stream — "live-regions" from
/// newregion/deleteregion and "live-bytes" from run-grab/run-free —
/// so heap shape graphs directly as counter tracks in Perfetto.
/// Returns the number of events written (instants plus counters).
/// Does not disarm.
std::size_t writeChromeTrace(std::FILE *Out);

/// writeChromeTrace to a file path; returns events written, or -1 if
/// the file cannot be created.
long writeChromeTrace(const char *Path);

} // namespace rstat
} // namespace regions

#endif // SUPPORT_TRACE_H
