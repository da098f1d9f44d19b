//===- support/Trace.cpp - rstat event-trace ring buffer ------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"
#include "support/Align.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <vector>

using namespace regions;
using namespace regions::rstat;
using rstat::detail::TraceRing;

thread_local RGN_CONSTINIT TraceRing *regions::rstat::detail::GRing = nullptr;

namespace {

/// Registry of every ring attached during the current epoch, plus the
/// epoch bookkeeping. One mutex, touched only at arm/attach/export
/// time — recording is lock-free within a thread's own ring.
struct TraceRegistry {
  std::mutex Lock;
  TraceRing *Rings = nullptr; ///< newest first
  std::uint32_t NumRings = 0;
  std::size_t Capacity = 1 << 14;
  std::chrono::steady_clock::time_point EpochStart;
};

TraceRegistry &registry() {
  static TraceRegistry R;
  return R;
}

/// Bumped on every armTracing(); zero means disarmed. A thread whose
/// ring belongs to an older epoch re-attaches (getting a fresh ring)
/// at its next attach point.
std::atomic<std::uint64_t> GArmedEpoch{0};

/// The epoch GRing belongs to (meaningful only while GRing != null or
/// after a detach). Lets attachThread() notice stale rings cheaply.
thread_local RGN_CONSTINIT std::uint64_t GRingEpoch = 0;

void freeRingsLocked(TraceRegistry &Reg) {
  while (TraceRing *Ring = Reg.Rings) {
    Reg.Rings = Ring->Next;
    std::free(Ring->Events);
    std::free(Ring);
  }
  Reg.NumRings = 0;
}

/// Allocates a ring, chains it into the registry, and points the
/// calling thread's TLS at it. Caller holds Reg.Lock.
TraceRing *attachLocked(TraceRegistry &Reg) {
  auto *Ring = static_cast<TraceRing *>(std::malloc(sizeof(TraceRing)));
  auto *Events = static_cast<TraceEvent *>(
      std::calloc(Reg.Capacity, sizeof(TraceEvent)));
  if (!Ring || !Events)
    reportFatalError("rstat: cannot allocate trace ring");
  Ring->Events = Events;
  Ring->Capacity = Reg.Capacity;
  Ring->Head.store(0, std::memory_order_relaxed);
  Ring->Tid = Reg.NumRings;
  Ring->Next = Reg.Rings;
  Reg.Rings = Ring;
  ++Reg.NumRings;
  rstat::detail::GRing = Ring;
  return Ring;
}

} // namespace

const char *rstat::eventName(EventKind K) {
  switch (K) {
  case EventKind::NewRegion:
    return "newregion";
  case EventKind::DeleteRegionOk:
    return "deleteregion";
  case EventKind::DeleteRegionFail:
    return "deleteregion-refused";
  case EventKind::RunGrab:
    return "run-grab";
  case EventKind::RunFree:
    return "run-free";
  case EventKind::CoalesceSweep:
    return "coalesce-sweep";
  case EventKind::QuarantineEvict:
    return "quarantine-evict";
  case EventKind::ShareRegion:
    return "share";
  case EventKind::TryDeleteOk:
    return "trydelete";
  case EventKind::TryDeleteRefused:
    return "trydelete-refused";
  case EventKind::ResolveStale:
    return "resolve-stale";
  case EventKind::ManagerQuiesced:
    return "quiesce";
  case EventKind::TryDeleteHandoff:
    return "trydelete-handoff";
  case EventKind::ResetRegion:
    return "resetregion";
  case EventKind::ResetRegionFail:
    return "resetregion-refused";
  case EventKind::PoolAcquire:
    return "pool-acquire";
  case EventKind::PoolRelease:
    return "pool-release";
  case EventKind::PoolTrim:
    return "pool-trim";
  }
  return "?";
}

void rstat::detail::recordSlow(TraceRing *Ring, EventKind K, std::uint64_t A,
                               std::uint32_t B) {
  auto Now = std::chrono::steady_clock::now();
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Now - registry().EpochStart)
                .count();
  std::size_t Head = Ring->Head.load(std::memory_order_relaxed);
  TraceEvent &E = Ring->Events[Head % Ring->Capacity];
  E.TimeNs = Ns < 0 ? 0 : static_cast<std::uint64_t>(Ns);
  E.A = A;
  E.B = B;
  E.Kind = K;
  Ring->Head.store(Head + 1, std::memory_order_relaxed);
}

bool rstat::tracingArmed() {
  return GArmedEpoch.load(std::memory_order_relaxed) != 0;
}

void rstat::armTracing(std::size_t EventsPerThread) {
  TraceRegistry &Reg = registry();
  std::lock_guard<std::mutex> Guard(Reg.Lock);
  freeRingsLocked(Reg);
  Reg.Capacity = EventsPerThread ? EventsPerThread : 1;
  Reg.EpochStart = std::chrono::steady_clock::now();
  std::uint64_t Epoch = GArmedEpoch.fetch_add(1, std::memory_order_relaxed) + 1;
  attachLocked(Reg); // the caller always traces its own epoch
  GRingEpoch = Epoch;
}

void rstat::disarmTracing() {
  // Odd->even would be nicer, but any nonzero value means "armed", so
  // disarm is simply epoch = 0; rings (and their events) stay for
  // export until the next armTracing().
  GArmedEpoch.store(0, std::memory_order_relaxed);
  detail::GRing = nullptr;
  GRingEpoch = 0;
}

void rstat::attachThread() {
  std::uint64_t Epoch = GArmedEpoch.load(std::memory_order_relaxed);
  if (Epoch == 0) {
    // Disarmed: make sure a ring from a dead epoch stops recording.
    detail::GRing = nullptr;
    return;
  }
  if (detail::GRing && GRingEpoch == Epoch)
    return; // already attached to this epoch
  TraceRegistry &Reg = registry();
  std::lock_guard<std::mutex> Guard(Reg.Lock);
  // Re-check under the lock: arm may have raced ahead.
  Epoch = GArmedEpoch.load(std::memory_order_relaxed);
  if (Epoch == 0)
    return;
  attachLocked(Reg);
  GRingEpoch = Epoch;
}

std::size_t rstat::tracedEventCount() {
  TraceRegistry &Reg = registry();
  std::lock_guard<std::mutex> Guard(Reg.Lock);
  std::size_t N = 0;
  for (TraceRing *Ring = Reg.Rings; Ring; Ring = Ring->Next) {
    std::size_t Head = Ring->Head.load(std::memory_order_relaxed);
    N += Head < Ring->Capacity ? Head : Ring->Capacity;
  }
  return N;
}

std::size_t rstat::droppedEventCount() {
  TraceRegistry &Reg = registry();
  std::lock_guard<std::mutex> Guard(Reg.Lock);
  std::size_t N = 0;
  for (TraceRing *Ring = Reg.Rings; Ring; Ring = Ring->Next) {
    std::size_t Head = Ring->Head.load(std::memory_order_relaxed);
    if (Head > Ring->Capacity)
      N += Head - Ring->Capacity;
  }
  return N;
}

std::size_t rstat::writeChromeTrace(std::FILE *Out) {
  TraceRegistry &Reg = registry();
  std::lock_guard<std::mutex> Guard(Reg.Lock);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", Out);
  std::size_t Written = 0;
  // Heap-shape counter derivation: the lifecycle events that move the
  // counters, pulled from every ring and merged into time order below.
  struct CounterDelta {
    std::uint64_t TimeNs;
    std::int64_t Regions;
    std::int64_t Bytes;
    std::int64_t Pooled;
  };
  std::vector<CounterDelta> Deltas;
  for (TraceRing *Ring = Reg.Rings; Ring; Ring = Ring->Next) {
    std::size_t Head = Ring->Head.load(std::memory_order_relaxed);
    std::size_t Count = Head < Ring->Capacity ? Head : Ring->Capacity;
    std::size_t First = Head - Count; // oldest surviving event
    for (std::size_t I = 0; I != Count; ++I) {
      const TraceEvent &E = Ring->Events[(First + I) % Ring->Capacity];
      if (Written)
        std::fputc(',', Out);
      // Instant events, thread-scoped; ts is microseconds (the trace
      // format's unit) with the sub-microsecond part kept as decimals.
      std::fprintf(Out,
                   "{\"name\":\"%s\",\"cat\":\"region\",\"ph\":\"i\","
                   "\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"a\":%llu,\"b\":%u}}",
                   eventName(E.Kind),
                   static_cast<double>(E.TimeNs) / 1000.0, Ring->Tid,
                   static_cast<unsigned long long>(E.A), E.B);
      ++Written;
      std::int64_t Pages = static_cast<std::int64_t>(E.B);
      switch (E.Kind) {
      case EventKind::NewRegion:
        Deltas.push_back({E.TimeNs, +1, 0, 0});
        break;
      case EventKind::DeleteRegionOk:
        Deltas.push_back({E.TimeNs, -1, 0, 0});
        break;
      case EventKind::RunGrab:
        Deltas.push_back(
            {E.TimeNs, 0, Pages * static_cast<std::int64_t>(kPageSize), 0});
        break;
      case EventKind::RunFree:
        Deltas.push_back(
            {E.TimeNs, 0, -Pages * static_cast<std::int64_t>(kPageSize), 0});
        break;
      case EventKind::PoolAcquire:
        // B==1 marks a pool hit: a cached region left the pool. Misses
        // hit newRegion and are counted by its own NewRegion event.
        if (E.B == 1)
          Deltas.push_back({E.TimeNs, 0, 0, -1});
        break;
      case EventKind::PoolRelease:
        Deltas.push_back({E.TimeNs, 0, 0, +1});
        break;
      case EventKind::PoolTrim:
        // The trim's deleteRegion traces its own DeleteRegionOk and
        // RunFree events; this delta only shrinks the pooled track.
        Deltas.push_back({E.TimeNs, 0, 0, -1});
        break;
      default:
        break;
      }
    }
  }
  // Counter events ("C" phase): one running track per quantity, on a
  // synthetic tid one past the last ring so per-thread instant-event
  // timestamp order is undisturbed. Wrapped rings can drop grabs whose
  // frees survive; clamping at zero keeps the tracks meaningful.
  std::stable_sort(Deltas.begin(), Deltas.end(),
                   [](const CounterDelta &A, const CounterDelta &B) {
                     return A.TimeNs < B.TimeNs;
                   });
  std::int64_t LiveRegions = 0, LiveBytes = 0, Pooled = 0;
  for (const CounterDelta &D : Deltas) {
    LiveRegions += D.Regions;
    LiveBytes += D.Bytes;
    Pooled += D.Pooled;
    if (Written)
      std::fputc(',', Out);
    const char *Name = D.Regions  ? "live-regions"
                       : D.Pooled ? "pooled-regions"
                                  : "live-bytes";
    const char *Series = D.Bytes ? "bytes" : "regions";
    std::int64_t Value = D.Regions ? LiveRegions
                         : D.Pooled ? Pooled
                                    : LiveBytes;
    std::fprintf(Out,
                 "{\"name\":\"%s\",\"cat\":\"region\",\"ph\":\"C\","
                 "\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"%s\":%lld}}",
                 Name, static_cast<double>(D.TimeNs) / 1000.0, Reg.NumRings,
                 Series,
                 static_cast<long long>(Value < 0 ? 0 : Value));
    ++Written;
  }
  std::fputs("]}\n", Out);
  return Written;
}

long rstat::writeChromeTrace(const char *Path) {
  std::FILE *Out = std::fopen(Path, "w");
  if (!Out)
    return -1;
  std::size_t N = writeChromeTrace(Out);
  std::fclose(Out);
  return static_cast<long>(N);
}
