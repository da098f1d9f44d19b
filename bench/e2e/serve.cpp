//===- bench/e2e/serve.cpp - The serve workload ---------------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// serve: open loop, one thread, Poisson arrivals from a seeded schedule.
// A request takes a region from a RegionPool, copies 4-12 header
// strings into it, builds a request object whose RegionPtr fields link
// the headers (sameregion) and point into a long-lived 4096-entry cache
// region (cross-region), writes its body in 8 KiB allocRaw buckets
// (2-64 KiB, log-uniform; 2% are uploads of 256 KiB-2 MiB), and takes a
// digest over the body, headers and cache entry. The region goes back to
// the pool once the response is out, eight requests later.
//
// Why: this is the only workload that uses in-place region reset, the
// cross-region reference counts with the pending-count buffer, and the
// large-run reservoir, and the only one whose latency tail shows
// slow-path stalls: run grabs, coalesce sweeps, pool trims.
//
// The run serves three fixed rates for a third of its time each. The
// end-to-end metrics are the requests' service times (start -> done) in
// cycles; request latency from when the request was due, and the backlog
// left at the end, print per rate. The rates are constants, never
// derived at run time.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "region/Pool.h"
#include "region/Regions.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <vector>

using namespace regions;

namespace regbench {
namespace {

// Frozen load points, requests per second. A search for the highest rate
// whose 1 s probe kept p99 latency under 1 000 us with no growing
// backlog found 47 700-96 700 rps over 40 runs of this workload
// (median 75 000) on a 4-vCPU KVM guest on a Xeon, family 6, model 207;
// these are about 21/43/64 % of that median (README.md, "Load points").
constexpr double kRates[] = {16000, 32000, 48000};
constexpr const char *kRateNames[] = {"low", "mid", "high"};
/// The idle time a clock measurement needs before the next request is
/// due, so that it never delays one.
constexpr std::uint64_t kClockIdleNs = 100'000;

/// Responses still being sent; their regions stay live meanwhile, so the
/// pool cycles several regions instead of handing back the same one.
constexpr std::size_t kInFlight = 8;
/// A per-thread pool budget of 1 MiB: the larger uploads do not fit and
/// are deleted on release, the smaller ones push warm regions out.
constexpr RegionPoolConfig kPoolConfig{64, 256};

constexpr unsigned kTemplates = 4096;
constexpr unsigned kCacheEntries = 4096;
constexpr unsigned kMinHeaders = 4;
constexpr unsigned kMaxHeaders = 12;
constexpr std::size_t kBucketBytes = 8192;
constexpr double kUploadShare = 0.02;
constexpr std::size_t kMinUpload = std::size_t{256} << 10;
/// Seeds the one order of upload sizes every run replays.
constexpr std::uint64_t kUploadOrderSeed = 0x5EED;

struct CacheEntry {
  std::uint64_t Value;
};

/// The request object: scanned (RegionPtr fields make it non-trivially
/// destructible), so the pool's reset runs its cleanup, which releases
/// the cross-region count on the cache.
struct Request {
  RegionPtr<char> Headers[kMaxHeaders];
  RegionPtr<CacheEntry> Cached;
  char **Buckets = nullptr;
  std::uint32_t NumHeaders = 0;
  std::uint32_t NumBuckets = 0;
};

struct RequestSpec {
  std::vector<std::string> Headers;
  std::size_t Body;
  std::uint64_t Key;
  std::uint32_t CacheIdx;
  std::uint64_t Digest; ///< expected response digest
};

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

inline std::uint64_t mix(std::uint64_t H, std::uint64_t W) {
  return (H ^ W) * 0x100000001B3ull;
}

std::uint64_t stringHash(const char *S) {
  std::uint64_t H = 0xCBF29CE484222325ull;
  for (; *S; ++S)
    H = mix(H, static_cast<unsigned char>(*S));
  return H;
}

std::uint64_t cacheValue(std::uint32_t Idx) { return (Idx + 1) * kGolden; }

/// The \p K-th of \p N evenly spaced quantiles of the log-uniform
/// distribution over [Lo, Hi], rounded down to a multiple of 8.
std::size_t logQuantile(std::size_t Lo, std::size_t Hi, std::size_t K,
                        std::size_t N) {
  double L = std::log(static_cast<double>(Lo));
  double H = std::log(static_cast<double>(Hi));
  double Q = (static_cast<double>(K) + 0.5) / static_cast<double>(N);
  auto V = static_cast<std::size_t>(std::exp(L + (H - L) * Q));
  return std::clamp<std::size_t>(V & ~std::size_t{7}, Lo, Hi);
}

template <class T> void shuffle(std::vector<T> &V, Prng &Rng) {
  for (std::size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.nextBelow(I)]);
}

/// Body sizes are the same quantiles for every seed (the seed only
/// decides which template gets which), so the upload load, which
/// dominates the latency tail, does not drift with the seed.
std::vector<RequestSpec> makeTemplates(std::uint64_t Seed) {
  Prng Rng = inputRng(Seed, 3);
  const std::size_t Uploads =
      static_cast<std::size_t>(kTemplates * kUploadShare + 0.5);
  std::vector<std::size_t> Bodies;
  for (std::size_t K = 0; K != Uploads; ++K)
    Bodies.push_back(logQuantile(kMinUpload, std::size_t{2} << 20, K, Uploads));
  for (std::size_t K = 0, N = kTemplates - Uploads; K != N; ++K)
    Bodies.push_back(
        logQuantile(std::size_t{2} << 10, std::size_t{64} << 10, K, N));
  shuffle(Bodies, Rng);

  std::vector<RequestSpec> Specs(kTemplates);
  for (std::size_t T = 0; T != kTemplates; ++T) {
    RequestSpec &Q = Specs[T];
    unsigned N = static_cast<unsigned>(Rng.nextInRange(kMinHeaders, kMaxHeaders));
    for (unsigned I = 0; I != N; ++I) {
      std::string H(Rng.nextInRange(16, 96), ' ');
      for (char &C : H)
        C = static_cast<char>('a' + Rng.nextBelow(26));
      Q.Headers.push_back(std::move(H));
    }
    Q.Body = Bodies[T];
    Q.Key = Rng.next();
    Q.CacheIdx = static_cast<std::uint32_t>(Rng.nextBelow(kCacheEntries));
    std::uint64_t H = 0xCBF29CE484222325ull;
    for (std::size_t W = 0, E = Q.Body / 8; W != E; ++W)
      H = mix(H, Q.Key + W * kGolden);
    for (const std::string &S : Q.Headers)
      H = mix(H, stringHash(S.c_str()));
    Q.Digest = mix(H, cacheValue(Q.CacheIdx));
  }
  return Specs;
}

/// The request order: each template once, shuffled, with the uploads
/// spread evenly (one every 50 requests or so) and their sizes in one
/// fixed order. How uploads follow each other decides how their freed
/// runs fragment the page source, and so the memory peak; that should
/// not depend on the seed.
std::vector<std::uint32_t> makeOrder(const std::vector<RequestSpec> &Specs,
                                     std::uint64_t Seed) {
  Prng Rng = inputRng(Seed, 4);
  std::vector<std::uint32_t> Uploads, Others;
  for (std::uint32_t I = 0; I != Specs.size(); ++I)
    (Specs[I].Body >= kMinUpload ? Uploads : Others).push_back(I);
  std::sort(Uploads.begin(), Uploads.end(), [&](std::uint32_t A, std::uint32_t B) {
    return Specs[A].Body < Specs[B].Body;
  });
  Prng Fixed(kUploadOrderSeed);
  shuffle(Uploads, Fixed);
  shuffle(Others, Rng);
  std::vector<std::uint32_t> Order;
  std::size_t U = 0, O = 0;
  for (std::size_t Pos = 0; Pos != Specs.size(); ++Pos) {
    std::size_t Slot = (2 * U + 1) * Specs.size() / (2 * Uploads.size());
    Order.push_back(U != Uploads.size() && Pos == Slot ? Uploads[U++]
                                                       : Others[O++]);
  }
  return Order;
}

struct ServeState {
  std::vector<RequestSpec> Specs;
  /// The request mix: a seeded shuffle of the templates, replayed in
  /// order, so every 4096 arrivals carry exactly the template mix.
  std::vector<std::uint32_t> Order;
  std::size_t NextRequest = 0;
  RegionManager Mgr;
  RegionPool Pool{Mgr, kPoolConfig};
  /// Regions of answered requests whose responses are still going out;
  /// a request's region goes back to the pool kInFlight requests later.
  std::deque<Region *> Sending;
  Region *CacheRegion;
  CacheEntry *Cache[kCacheEntries];
  Counters Warm;
  std::uint64_t ReleaseRefused = 0;

  ServeState(const RunConfig &Cfg, Report &Rep, bool TracedWarmup);
  ~ServeState() {
    for (Region *R : Sending)
      Pool.release(R);
    Pool.trimAll();
    Mgr.deleteRegionRaw(CacheRegion);
  }
};

/// Serves one request; returns false on a digest mismatch or a refused
/// release. \p Tr non-null times every call into the library.
template <bool Traced>
bool serveOne(ServeState &S, const RequestSpec &Q, Tracer *Tr) {
  auto Timed = [&](auto Call, Layer L, std::size_t Size) {
    if constexpr (Traced) {
      std::uint64_t T0 = nowNs();
      auto R = Call();
      std::uint64_t T1 = nowNs();
      if (L == Layer::Alloc)
        Tr->alloc(T0, T1, Size);
      else
        Tr->span(L, T0, T1);
      return R;
    } else {
      (void)L;
      (void)Size;
      return Call();
    }
  };
  RegionManager &M = S.Mgr;
  Region *R = Timed([&] { return S.Pool.acquire(); }, Layer::PoolAcquire, 0);
  Request *Req = Timed([&] { return rnew<Request>(R); }, Layer::Alloc,
                       sizeof(Request));
  Req->NumHeaders = static_cast<std::uint32_t>(Q.Headers.size());
  for (std::uint32_t I = 0; I != Req->NumHeaders; ++I) {
    const std::string &H = Q.Headers[I];
    Req->Headers[I] =
        Timed([&] { return rstrdup(R, H.c_str()); }, Layer::Alloc, H.size() + 1);
  }
  Req->Cached = S.Cache[Q.CacheIdx];
  Req->NumBuckets =
      static_cast<std::uint32_t>((Q.Body + kBucketBytes - 1) / kBucketBytes);
  Req->Buckets = Timed([&] { return rnewArray<char *>(R, Req->NumBuckets); },
                       Layer::Alloc, Req->NumBuckets * sizeof(char *));
  std::uint64_t Word = 0;
  std::size_t Left = Q.Body;
  for (std::uint32_t B = 0; B != Req->NumBuckets; ++B) {
    std::size_t Chunk = std::min(Left, kBucketBytes);
    auto *P = static_cast<std::uint64_t *>(
        Timed([&] { return M.allocRaw(R, Chunk); }, Layer::Alloc, Chunk));
    for (std::size_t W = 0; W != Chunk / 8; ++W, ++Word)
      P[W] = Q.Key + Word * kGolden;
    Req->Buckets[B] = reinterpret_cast<char *>(P);
    Left -= Chunk;
  }

  // The response: a digest over what the request wrote.
  std::uint64_t H = 0xCBF29CE484222325ull;
  Left = Q.Body;
  for (std::uint32_t B = 0; B != Req->NumBuckets; ++B) {
    std::size_t Chunk = std::min(Left, kBucketBytes);
    const auto *P = reinterpret_cast<const std::uint64_t *>(Req->Buckets[B]);
    for (std::size_t W = 0; W != Chunk / 8; ++W)
      H = mix(H, P[W]);
    Left -= Chunk;
  }
  for (std::uint32_t I = 0; I != Req->NumHeaders; ++I)
    H = mix(H, stringHash(Req->Headers[I].get()));
  H = mix(H, Req->Cached->Value);

  bool Released = true;
  S.Sending.push_back(R);
  if (S.Sending.size() > kInFlight) {
    Region *Done = S.Sending.front();
    S.Sending.pop_front();
    Released =
        Timed([&] { return S.Pool.release(Done); }, Layer::PoolRelease, 0);
    if (!Released)
      ++S.ReleaseRefused;
  }
  return Released && H == Q.Digest;
}

ServeState::ServeState(const RunConfig &Cfg, Report &Rep, bool TracedWarmup)
    : Specs(makeTemplates(Cfg.Seed)), Order(makeOrder(Specs, Cfg.Seed)),
      CacheRegion(Mgr.newRegion()) {
  for (std::uint32_t I = 0; I != kCacheEntries; ++I)
    Cache[I] = rnew<CacheEntry>(CacheRegion, CacheEntry{cacheValue(I)});
  LibraryCounters C;
  Tracer Tr(0, 0);
  for (std::uint32_t I : Order) {
    const RequestSpec &Q = Specs[I];
    Rep.attempt(1);
    if (!(TracedWarmup ? serveOne<true>(*this, Q, &Tr)
                       : serveOne<false>(*this, Q, nullptr)))
      Rep.fail(1, "warm-up request failed its digest or release");
  }
  C.addManager(Mgr);
  C.closeStack();
  Warm = C.fingerprint();
}

struct PhaseResult {
  Samples Latency;
  Samples Wait; ///< due -> start: how late the generator ran
  std::uint64_t Requests = 0;
  std::uint64_t BacklogEnd = 0;
};

/// One open-loop phase at \p Rate requests/s for \p Seconds. Arrivals
/// are drawn before the clock starts; a request's latency runs from its
/// due time, so a stall also charges the requests queued behind it.
/// \p Service receives each request's service time (start -> done); the
/// clock is measured in idle time only.
template <bool Traced>
void openLoop(ServeState &S, Report &Rep, Prng &Arrivals, double Rate,
              double Seconds, PhaseResult &Out, CycleSamples &Service,
              Tracer *Tr) {
  const auto Horizon = static_cast<std::uint64_t>(Seconds * 1e9);
  std::vector<std::uint64_t> Due;
  std::vector<std::uint32_t> Which;
  double T = 0;
  for (;;) {
    T += -std::log(1 - Arrivals.nextDouble()) / Rate * 1e9;
    if (T >= static_cast<double>(Horizon))
      break;
    Due.push_back(static_cast<std::uint64_t>(T));
    Which.push_back(S.Order[S.NextRequest++ % kTemplates]);
  }
  const std::uint64_t Start = nowNs();
  const std::uint64_t End = Start + Horizon;
  // An overloaded phase gives up once it is a quarter phase behind.
  const std::uint64_t Cutoff = End + Horizon / 4;
  std::uint64_t DoneByEnd = 0;
  std::size_t I = 0;
  for (; I != Due.size(); ++I) {
    const std::uint64_t DueAt = Start + Due[I];
    std::uint64_t Now = nowNs();
    if (DueAt > Now + kClockIdleNs)
      Service.tick(Now);
    while (Now < DueAt)
      Now = nowNs();
    if (Now > Cutoff)
      break;
    if constexpr (Traced)
      Tr->beginRoot("serve.request", Now);
    bool Ok = serveOne<Traced>(S, S.Specs[Which[I]], Tr);
    const std::uint64_t Done = nowNs();
    if constexpr (Traced)
      Tr->endRoot(Done);
    if (!Ok)
      Rep.fail(1, "request " + std::to_string(Which[I]) +
                      " failed its digest or release");
    Out.Latency.add(Done - DueAt);
    Out.Wait.add(Now - DueAt);
    Service.add(Done - Now);
    DoneByEnd += Done <= End;
  }
  Rep.attempt(I);
  Out.Requests += I;
  Out.BacklogEnd = Due.size() - DoneByEnd;
}

void addRatePhase(Report &Rep, const char *Name, PhaseResult &P) {
  Rep.add(MetricKind::Info, std::string("req_us_p50_") + Name,
          P.Latency.quantileUs(0.50), "us", P.Latency.count());
  Rep.add(MetricKind::Info, std::string("req_us_p99_") + Name,
          P.Latency.quantileUs(0.99), "us", P.Latency.count());
  Rep.add(MetricKind::Info, std::string("serve.backlog_end_") + Name,
          static_cast<double>(P.BacklogEnd), "count", P.Requests);
}

void addQueueWait(Report &Rep, PhaseResult &Mid) {
  Rep.add(MetricKind::Info, "serve.queue.wait_us_p50", Mid.Wait.quantileUs(0.50),
          "us", Mid.Wait.count());
  Rep.add(MetricKind::Info, "serve.queue.wait_us_p99", Mid.Wait.quantileUs(0.99),
          "us", Mid.Wait.count());
}

} // namespace

int runServe(const RunConfig &Cfg) {
  Report Rep(Cfg);
  std::unique_ptr<ServeState> S = timedSetups<ServeState>(Cfg, Rep);
  Prng Arrivals = inputRng(Cfg.Seed, 6);
  CycleSamples Service(Cfg.Seed);

  if (!Cfg.Trace) {
    PhaseResult Phases[3];
    for (unsigned I = 0; I != 3; ++I) {
      openLoop<false>(*S, Rep, Arrivals, kRates[I], Cfg.Seconds / 3, Phases[I],
                      Service, nullptr);
      addRatePhase(Rep, kRateNames[I], Phases[I]);
    }
    Service.finish();
    addQueueWait(Rep, Phases[1]);
    // The end-to-end names every workload shares measure the requests
    // themselves: requests per busy cycle of the server thread (its
    // capacity) and service-time percentiles. Queueing is in the per-rate
    // lines: a request that arrives during an upload waits up to its
    // whole length, so due-time percentiles sit on that queue's edge and
    // multiply every slowdown of the host.
    Rep.addEndToEnd(Service, S->Mgr.osBytes(), 1);
  } else {
    // Untraced reference at the mid rate, then each fixed rate traced.
    double Share = Cfg.Seconds * kTraceReferenceShare;
    PhaseResult Ref;
    openLoop<false>(*S, Rep, Arrivals, kRates[1], Share, Ref, Service, nullptr);
    Service.finish();
    addRatePhase(Rep, "mid", Ref);
    Tracer Tr(1, measureClockNs());
    LibraryCounters Before;
    Before.addManager(S->Mgr);
    LibraryCounters After;
    std::uint64_t RefusedBefore = S->ReleaseRefused;
    CycleSamples TracedService(Cfg.Seed);
    PhaseResult Traced[3];
    for (unsigned I = 0; I != 3; ++I)
      openLoop<true>(*S, Rep, Arrivals, kRates[I], Share, Traced[I],
                     TracedService, &Tr);
    TracedService.finish();
    After.addManager(S->Mgr);
    After.closeStack();
    After.subtract(Before);
    Rep.addLayers(Tr, After, S->ReleaseRefused - RefusedBefore, 0, 0);
    addQueueWait(Rep, Traced[1]);
    addTraceOverhead(Rep, Service, TracedService);
    Rep.setChromeTrace(Tr);
  }
  return Rep.finish();
}

} // namespace regbench
