//===- bench/e2e/pipeline.cpp - The pipeline workload ---------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// pipeline: closed loop, two threads (one producer, one consumer) joined
// by two single-producer single-consumer rings of 64 messages. A job is
// one message, from its region's creation to its retirement:
//
//   producer  newRegion, share, write a 1-4 KiB payload, pin it with
//             addRef, push;
//   consumer  claim it with addRef, verify the payload digest, store a
//             pointer into the message in the shared `latest` slot with
//             the resolving sharedExchange (which displaces the previous
//             message's region), tryDelete (must refuse: the pins and
//             `latest` hold it), dropRef, hand it back;
//   producer  dropRef, tryDelete. A refusal (the region `latest` still
//             points into) is retried when the next message comes back.
//
// Why: this is the only workload on ParallelSpace; the other three are
// its bypass.
//
// A job's cost is its service time: the producer's, the consumer's and
// the retiring call's time on the message, each in cycles of the thread
// that spent it, without the time it sat in a ring or waited for
// `latest` to move on. Those waits are a queue whose length flips
// between nearly empty and full with whichever side is a little faster;
// they are reported as par.ring.wait in traced runs.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "region/Parallel.h"
#include "region/Regions.h"

#include <atomic>
#include <thread>
#include <vector>

using namespace regions;

namespace regbench {
namespace {

constexpr unsigned kRingSize = 64;
constexpr unsigned kPayloads = 256;
constexpr std::size_t kMinPayload = 1024;
/// Payloads stay on the small-allocation path.
constexpr std::size_t kMaxPayload = RegionManager::maxRawAlloc() & ~std::size_t{7};

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

struct Payload {
  std::uint32_t Words;
  std::uint64_t Key;
  std::uint64_t Digest;
};

std::uint64_t digest(const std::uint64_t *Data, std::uint32_t Words) {
  std::uint64_t H = 0xCBF29CE484222325ull;
  for (std::uint32_t I = 0; I != Words; ++I)
    H = (H ^ Data[I]) * 0x100000001B3ull;
  return H;
}

std::vector<Payload> makePayloads(std::uint64_t Seed) {
  Prng Rng = inputRng(Seed, 5);
  std::vector<Payload> Out(kPayloads);
  std::vector<std::uint64_t> Buf(kMaxPayload / 8);
  for (Payload &P : Out) {
    P.Words = static_cast<std::uint32_t>(Rng.nextInRange(kMinPayload, kMaxPayload) / 8);
    P.Key = Rng.next();
    for (std::uint32_t I = 0; I != P.Words; ++I)
      Buf[I] = P.Key + I * kGolden;
    P.Digest = digest(Buf.data(), P.Words);
  }
  return Out;
}

struct Message {
  par::SharedRegion *S;
  const std::uint64_t *Data;
  std::uint32_t Which;
  std::uint64_t Pushed;     ///< when the producer pushed it
  std::uint64_t ProducerNs; ///< the producer's time on it so far
  double ConsumerCycles;    ///< the consumer's time on it
};

/// Bounded single-producer single-consumer ring. Neither side ever
/// finds it full: at most kRingSize messages are in flight.
class Ring {
public:
  void push(const Message &M) {
    unsigned T = Tail.load(std::memory_order_relaxed);
    Buf[T % kRingSize] = M;
    Tail.store(T + 1, std::memory_order_release);
  }
  bool pop(Message &M) {
    unsigned H = Head.load(std::memory_order_relaxed);
    if (Tail.load(std::memory_order_acquire) == H)
      return false;
    M = Buf[H % kRingSize];
    Head.store(H + 1, std::memory_order_release);
    return true;
  }

private:
  Message Buf[kRingSize];
  alignas(64) std::atomic<unsigned> Head{0};
  alignas(64) std::atomic<unsigned> Tail{0};
};

void relax(unsigned &Spins) {
  if (++Spins < 256) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    return;
  }
  Spins = 0;
  std::this_thread::yield();
}

/// What only the consumer thread writes; read after it is joined.
struct ConsumerSide {
  explicit ConsumerSide(std::uint64_t Seed) : RingWait(Seed) {}
  Tracer Tr{2, 0};
  Samples RingWait; ///< push -> pop, traced runs
  double Ghz = 0;   ///< the consumer's clock, measured between messages
  std::uint64_t ClockAt = 0;
  std::uint64_t BadDigests = 0;
  std::uint64_t WrongDeletes = 0;
  std::uint64_t Refused = 0;
};

struct PipelineState {
  std::vector<Payload> Payloads;
  RegionManager Mgr; ///< the producer's; outlives the space
  par::ParallelSpace Space;
  par::ThreadSlot Tid{Space};
  Ring ToConsumer;
  Ring ToProducer;
  std::atomic<const std::uint64_t *> Latest{nullptr};
  std::atomic<bool> Traced{false};
  std::atomic<bool> Stop{false};
  ConsumerSide Consumer;
  std::vector<Message> Pending; ///< returned but refused
  std::uint64_t InFlight = 0;
  std::uint64_t Produced = 0;
  std::uint64_t Refused = 0; ///< producer-side tryDelete refusals
  Counters Warm;
  std::thread Thread; ///< last: started after everything it uses

  PipelineState(const RunConfig &Cfg, Report &Rep, bool TracedWarmup);
  ~PipelineState() { drain(); }

  void consume();
  /// Runs the pipeline until \p Seconds pass or \p MaxJobs messages
  /// were produced, then until every message is back. Returns the
  /// number of messages retired.
  std::uint64_t run(double Seconds, std::uint64_t MaxJobs, CycleSamples &Latency,
                    Tracer *Tr);
  /// Stops the consumer and retires what is left; returns how many
  /// regions could not be retired.
  std::uint64_t drain();

private:
  void produce(std::uint64_t T0, Tracer *Tr);
  bool retire(const Message &M, bool Returned, CycleSamples *Latency, Tracer *Tr);
};

void PipelineState::consume() {
  par::ThreadSlot Me(Space);
  ConsumerSide &C = Consumer;
  unsigned Spins = 0;
  for (;;) {
    Message M;
    if (!ToConsumer.pop(M)) {
      if (Stop.load(std::memory_order_acquire))
        break;
      relax(Spins);
      continue;
    }
    Spins = 0;
    const bool Trace = Traced.load(std::memory_order_relaxed);
    std::uint64_t Popped = nowNs();
    if (!C.ClockAt || Popped - C.ClockAt >= CycleSamples::kClockEveryNs) {
      C.Ghz = measureClockGhz();
      Popped = C.ClockAt = nowNs();
    }
    if (Trace) {
      C.RingWait.add(Popped - M.Pushed);
      C.Tr.beginRoot("pipeline.consume", Popped);
    }
    Space.addRef(M.S, Me);
    const Payload &Want = Payloads[M.Which];
    if (digest(M.Data, Want.Words) != Want.Digest)
      ++C.BadDigests;
    std::uint64_t T0 = Trace ? nowNs() : 0;
    Space.sharedExchange(Latest, M.Data, M.S, Me);
    if (Trace)
      C.Tr.span(Layer::ParExchange, T0, nowNs());
    T0 = Trace ? nowNs() : 0;
    bool Deleted = Space.tryDelete(M.S);
    if (Trace)
      C.Tr.span(Layer::ParTryDelete, T0, nowNs());
    if (Deleted)
      ++C.WrongDeletes;
    else
      ++C.Refused;
    Space.dropRef(M.S, Me);
    const std::uint64_t Done = nowNs();
    if (Trace)
      C.Tr.endRoot(Done);
    M.ConsumerCycles = static_cast<double>(Done - Popped) * C.Ghz;
    ToProducer.push(M);
  }
  // Displace the last message so its region can be retired.
  Space.sharedExchange(Latest, static_cast<const std::uint64_t *>(nullptr),
                       nullptr, Me);
}

void PipelineState::produce(std::uint64_t T0, Tracer *Tr) {
  if (Tr)
    Tr->beginRoot("pipeline.produce", T0);
  std::uint64_t A = Tr ? nowNs() : 0;
  Region *R = Mgr.newRegion();
  if (Tr)
    Tr->span(Layer::NewRegion, A, nowNs());
  A = Tr ? nowNs() : 0;
  par::SharedRegion *S = Space.share(R);
  if (Tr)
    Tr->span(Layer::ParShare, A, nowNs());
  std::uint32_t Which = static_cast<std::uint32_t>(Produced % kPayloads);
  const Payload &P = Payloads[Which];
  A = Tr ? nowNs() : 0;
  auto *Data = static_cast<std::uint64_t *>(Mgr.allocRaw(R, P.Words * 8));
  if (Tr)
    Tr->alloc(A, nowNs(), P.Words * 8);
  for (std::uint32_t I = 0; I != P.Words; ++I)
    Data[I] = P.Key + I * kGolden;
  Space.addRef(S, Tid);
  const std::uint64_t Pushed = nowNs();
  ToConsumer.push({S, Data, Which, Pushed, Pushed - T0, 0});
  if (Tr)
    Tr->endRoot(nowNs());
  ++InFlight;
  ++Produced;
}

bool PipelineState::retire(const Message &M, bool Returned, CycleSamples *Latency,
                           Tracer *Tr) {
  const std::uint64_t T0 = nowNs();
  if (Tr)
    Tr->beginRoot(Returned ? "pipeline.retire" : "pipeline.retry", T0);
  if (Returned)
    Space.dropRef(M.S, Tid);
  std::uint64_t A = Tr ? nowNs() : 0;
  bool Deleted = Space.tryDelete(M.S);
  const std::uint64_t Done = nowNs();
  if (Tr) {
    Tr->span(Layer::ParTryDelete, A, Done);
    Tr->endRoot(nowNs());
  }
  if (!Deleted) {
    ++Refused;
    return false;
  }
  if (Latency)
    Latency->add(M.ProducerNs + (Done - T0), M.ConsumerCycles);
  return true;
}

std::uint64_t PipelineState::run(double Seconds, std::uint64_t MaxJobs,
                                 CycleSamples &Latency, Tracer *Tr) {
  Traced.store(Tr != nullptr, std::memory_order_relaxed);
  const std::uint64_t Deadline =
      nowNs() + static_cast<std::uint64_t>(Seconds * 1e9);
  const std::uint64_t FirstJob = Produced;
  std::uint64_t Jobs = 0;
  unsigned Spins = 0;
  for (;;) {
    Latency.tick(nowNs());
    std::uint64_t Now = nowNs();
    bool Returned = false;
    Message M;
    while (ToProducer.pop(M)) {
      --InFlight;
      Returned = true;
      if (!retire(M, true, &Latency, Tr))
        Pending.push_back(M);
      else
        ++Jobs;
    }
    if (Returned) {
      // The consumer has exchanged a newer message into `latest` since
      // the pending ones came back: retry them.
      for (std::size_t I = 0; I != Pending.size();) {
        if (retire(Pending[I], false, &Latency, Tr)) {
          ++Jobs;
          Pending[I] = Pending.back();
          Pending.pop_back();
        } else {
          ++I;
        }
      }
    }
    bool Producing = Now < Deadline && Produced - FirstJob < MaxJobs;
    if (Producing && InFlight < kRingSize) {
      produce(Now, Tr);
      Spins = 0;
      continue;
    }
    if (!Producing && InFlight == 0)
      break;
    if (!Returned)
      relax(Spins);
  }
  Latency.finish();
  return Jobs;
}

std::uint64_t PipelineState::drain() {
  if (!Thread.joinable())
    return 0;
  Stop.store(true, std::memory_order_release);
  Thread.join();
  std::uint64_t Left = 0;
  for (const Message &M : Pending)
    Left += !retire(M, false, nullptr, nullptr);
  Pending.clear();
  return Left;
}

PipelineState::PipelineState(const RunConfig &Cfg, Report &Rep,
                             bool TracedWarmup)
    : Payloads(makePayloads(Cfg.Seed)), Consumer(Cfg.Seed) {
  Thread = std::thread([this] { consume(); });
  LibraryCounters C;
  Tracer Tr(1, 0);
  CycleSamples Unused(0);
  std::uint64_t Jobs = run(1e9, kPayloads, Unused, TracedWarmup ? &Tr : nullptr);
  Rep.attempt(kPayloads);
  if (Jobs + Pending.size() != kPayloads)
    Rep.fail(kPayloads - Jobs, "warm-up lost messages");
  C.addManager(Mgr);
  C.closeStack();
  // Page-source state depends on how far the consumer lagged; the
  // region lifecycle counts do not.
  Warm = C.fingerprint(/*WithPageSource=*/false);
}

} // namespace

int runPipeline(const RunConfig &Cfg) {
  Report Rep(Cfg);
  std::unique_ptr<PipelineState> S = timedSetups<PipelineState>(Cfg, Rep);

  double Untraced = Cfg.Trace ? Cfg.Seconds * kTraceReferenceShare : Cfg.Seconds;
  const std::uint64_t NoLimit = ~std::uint64_t{0};
  CycleSamples Latency(Cfg.Seed);
  std::uint64_t Before = S->Produced;
  S->run(Untraced, NoLimit, Latency, nullptr);
  Rep.attempt(S->Produced - Before);
  Rep.addEndToEnd(Latency, S->Mgr.osBytes(), 1);

  // Between phases every message is back, so the consumer is idle and
  // its counters are visible here (ordered by the return ring).
  Tracer Tr(1, Cfg.Trace ? measureClockNs() : 0);
  LibraryCounters After;
  std::uint64_t Refused = 0, LockFree = 0;
  if (Cfg.Trace) {
    S->Consumer.Tr = Tracer(2, Tr.clockNs());
    LibraryCounters BeforeTrace;
    BeforeTrace.addManager(S->Mgr);
    std::uint64_t RefusedBefore = S->Refused + S->Consumer.Refused;
    std::uint64_t LockFreeBefore = S->Space.lockFreeRefusals();
    After = LibraryCounters();
    CycleSamples TracedLatency(Cfg.Seed);
    Before = S->Produced;
    S->run(Cfg.Seconds - Untraced, NoLimit, TracedLatency, &Tr);
    Rep.attempt(S->Produced - Before);
    After.addManager(S->Mgr);
    After.closeStack();
    After.subtract(BeforeTrace);
    Refused = S->Refused + S->Consumer.Refused - RefusedBefore;
    LockFree = S->Space.lockFreeRefusals() - LockFreeBefore;
    addTraceOverhead(Rep, Latency, TracedLatency);
  }

  if (std::uint64_t Left = S->drain())
    Rep.fail(Left, "shared regions not retired by exit");
  if (std::size_t Live = S->Space.liveSharedRegions())
    Rep.fail(Live, "liveSharedRegions() != 0 at exit");
  ConsumerSide &C = S->Consumer;
  if (C.BadDigests)
    Rep.fail(C.BadDigests, "payload digest mismatch");
  if (C.WrongDeletes)
    Rep.fail(C.WrongDeletes, "consumer tryDelete succeeded");

  if (Cfg.Trace) {
    Tr.merge(C.Tr);
    Rep.addLayers(Tr, After, 0, Refused, LockFree);
    Rep.add(MetricKind::Info, "par.ring.wait_us_p50",
            C.RingWait.quantileUs(0.50), "us", C.RingWait.count());
    Rep.add(MetricKind::Info, "par.ring.wait_us_p99",
            C.RingWait.quantileUs(0.99), "us", C.RingWait.count());
    Rep.setChromeTrace(Tr);
  }
  return Rep.finish();
}

} // namespace regbench
