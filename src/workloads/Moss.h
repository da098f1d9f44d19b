//===- workloads/Moss.h - Winnowing plagiarism-detection workload -*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's moss benchmark: "a software plagiarism detection system"
/// run on 180 student projects. The detection algorithm is winnowing
/// over k-gram fingerprints (the published MOSS algorithm): hash every
/// k-gram, keep the minimum hash of each window, index the selected
/// fingerprints, and score document pairs by shared fingerprints.
///
/// The paper's §5.5 locality experiment lives here: "the memory
/// allocation pattern of moss is to alternately allocate a small,
/// frequently accessed object and a large, infrequently accessed
/// object... The 24% improvement is obtained by using two regions: one
/// for the small objects and one for the large objects." With
/// SplitRegions=false the small postings interleave with the big
/// document buffers in one region (the paper's "slow" configuration);
/// with true they are segregated.
///
//===----------------------------------------------------------------------===//

#ifndef WORKLOADS_MOSS_H
#define WORKLOADS_MOSS_H

#include "backend/Models.h"
#include "text/TextGen.h"
#include "text/Tokenizer.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace regions {
namespace workloads {

struct MossOptions {
  unsigned NumDocs = 60;
  text::SubmissionOptions Sub;
  unsigned K = 15;           ///< k-gram length (characters)
  /// Winnowing window. The default keeps the volume of fingerprint
  /// records roughly equal to the fragment text volume, reproducing
  /// the paper's one-to-one small/large alternation.
  unsigned Window = 48;
  bool SplitRegions = true;  ///< the §5.5 two-region optimization
  unsigned MatchPasses = 12; ///< refinement sweeps over the doc chains
};

struct MossResult {
  std::uint64_t Fingerprints = 0;
  std::uint64_t MatchingPairs = 0; ///< pairs sharing >= threshold prints
  std::uint64_t TopPairHash = 0;
  std::uint64_t TotalMatches = 0;

  std::uint64_t checksum() const {
    return TopPairHash ^ (Fingerprints << 24) ^ MatchingPairs ^
           (TotalMatches << 8);
  }
};

namespace moss_detail {
/// Keeps the refinement sweep from being optimized away.
inline void benchmarkConsume(std::uint64_t V) {
  volatile std::uint64_t Sink = V;
  (void)Sink;
}
} // namespace moss_detail

template <class M>
MossResult runMoss(M &Mem, const MossOptions &Opt) {
  using moss_detail::benchmarkConsume;
  MossResult Result;
  text::SubmissionCorpus Corpus =
      text::generateSubmissions(Opt.NumDocs, Opt.Sub);

  [[maybe_unused]] typename M::Frame Frame;
  // Two regions when split; everything lands in Index otherwise.
  typename M::Token TextScope = Mem.makeRegion();
  typename M::Token IndexScope = Mem.makeRegion();
  auto &DocScope = Opt.SplitRegions ? TextScope : IndexScope;

  struct Posting {
    std::uint64_t Fp = 0;
    std::uint32_t Doc = 0;
    std::uint32_t Pos = 0;
    // Postings only ever chain to postings in the index scope:
    // statically sameregion, so the links skip the barrier entirely
    // (debug-asserted). The bucket/head arrays keep barriered slots.
    typename M::template SamePtr<Posting> Next;    ///< bucket chain
    typename M::template SamePtr<Posting> DocNext; ///< per-document chain
  };
  constexpr unsigned kBuckets = 4096;
  auto *Buckets = Mem.template createArray<
      typename M::template Ptr<Posting>>(IndexScope, kBuckets);
  auto *DocHeads = Mem.template createArray<
      typename M::template Ptr<Posting>>(IndexScope, Opt.NumDocs);

  // --- Build phase ----------------------------------------------------
  // Documents are ingested fragment by fragment (one source line at a
  // time, the way moss processes files): each fragment is copied into
  // the text scope and its winnowed fingerprints are inserted into the
  // index immediately — the paper's "alternately allocate a small,
  // frequently accessed object and a large, infrequently accessed
  // object" pattern. With SplitRegions=false the fragment copies land
  // between the postings and dilute their locality (the "slow" run).
  for (unsigned Doc = 0; Doc != Corpus.Documents.size(); ++Doc) {
    const std::string &Source = Corpus.Documents[Doc];
    std::size_t LineStart = 0;
    std::uint32_t DocOffset = 0;
    while (LineStart < Source.size()) {
      std::size_t LineEnd = Source.find('\n', LineStart);
      if (LineEnd == std::string::npos)
        LineEnd = Source.size();
      std::size_t Len = LineEnd - LineStart;
      if (Len >= Opt.K) {
        // Fragment text goes on the scanned side (paper: ralloc'd
        // buffers), so in the one-region configuration it interleaves
        // with the postings.
        auto *Buf = static_cast<char *>(Mem.allocBlob(DocScope, Len));
        std::memcpy(Buf, Source.data() + LineStart, Len);
        Mem.touch(Buf, Len, true);

        // Robust winnowing within the fragment: keep the minimum hash
        // of each window, recorded when the minimum's position moves.
        text::RollingHash RH(Buf, Len, Opt.K);
        std::uint64_t WindowHashes[64];
        std::uint32_t WindowPos[64];
        unsigned Filled = 0;
        std::uint32_t LastRecorded = UINT32_MAX;
        unsigned Window = Opt.Window < 64 ? Opt.Window : 64;
        while (RH.valid()) {
          unsigned Slot = Filled % Window;
          WindowHashes[Slot] = RH.hash();
          WindowPos[Slot] = static_cast<std::uint32_t>(RH.position());
          ++Filled;
          if (Filled >= Window) {
            unsigned MinIdx = 0;
            for (unsigned I = 1; I != Window; ++I) {
              if (WindowHashes[I] < WindowHashes[MinIdx] ||
                  (WindowHashes[I] == WindowHashes[MinIdx] &&
                   WindowPos[I] > WindowPos[MinIdx]))
                MinIdx = I;
            }
            if (WindowPos[MinIdx] != LastRecorded) {
              LastRecorded = WindowPos[MinIdx];
              std::uint64_t Fp = WindowHashes[MinIdx];
              unsigned B = Fp % kBuckets;
              auto *P = Mem.template create<Posting>(IndexScope);
              P->Fp = Fp;
              P->Doc = Doc;
              P->Pos = DocOffset + WindowPos[MinIdx];
              P->Next = Buckets[B];
              Buckets[B] = P;
              P->DocNext = DocHeads[Doc];
              DocHeads[Doc] = P;
              ++Result.Fingerprints;
            }
          }
          if (!RH.advance())
            break;
        }
      }
      DocOffset += static_cast<std::uint32_t>(Len) + 1;
      LineStart = LineEnd + 1;
    }
  }

  // --- Match phase -----------------------------------------------------
  // One counting sweep over the bucket chains, then MatchPasses
  // refinement sweeps that walk every document's posting chain (moss
  // walks per-document passage lists when scoring and reporting). The
  // per-document chains are allocation-ordered, so their locality is
  // exactly what the 5.5 two-region split improves: packed postings
  // sweep sequentially; postings interleaved with fragment text drag
  // the cold text through the cache line by line.
  unsigned N = static_cast<unsigned>(Corpus.Documents.size());
  auto *Counts = Mem.template createArray<std::uint32_t>(
      IndexScope, static_cast<std::size_t>(N) * N);
  for (unsigned B = 0; B != kBuckets; ++B) {
    for (Posting *P = Buckets[B]; P; P = P->Next) {
      Mem.touch(P, sizeof(Posting), false);
      for (Posting *Q = P->Next; Q; Q = Q->Next) {
        if (Q->Fp != P->Fp || Q->Doc == P->Doc)
          continue;
        Mem.touch(Q, sizeof(Posting), false);
        unsigned Lo = std::min(P->Doc, Q->Doc);
        unsigned Hi = std::max(P->Doc, Q->Doc);
        ++Counts[Lo * N + Hi];
      }
    }
  }
  std::uint64_t RefineChecksum = 0;
  for (unsigned Pass = 0; Pass != Opt.MatchPasses; ++Pass) {
    for (unsigned D = 0; D != N; ++D) {
      for (Posting *P = DocHeads[D]; P; P = P->DocNext) {
        Mem.touch(P, sizeof(Posting), false);
        RefineChecksum += P->Fp & 0xff;
      }
    }
  }
  benchmarkConsume(RefineChecksum);

  // --- Report: rank pairs by shared fingerprints ----------------------
  std::vector<std::pair<std::uint32_t, std::uint32_t>> Ranked;
  for (unsigned Lo = 0; Lo != N; ++Lo)
    for (unsigned Hi = Lo + 1; Hi != N; ++Hi)
      if (Counts[Lo * N + Hi] >= 4) {
        Ranked.emplace_back(Counts[Lo * N + Hi], Lo * N + Hi);
        Result.TotalMatches += Counts[Lo * N + Hi];
      }
  Result.MatchingPairs = Ranked.size();
  std::sort(Ranked.rbegin(), Ranked.rend());
  for (std::size_t I = 0; I != Ranked.size() && I < 10; ++I)
    Result.TopPairHash =
        Result.TopPairHash * 1000003 + Ranked[I].second;

  bool DroppedIndex = Mem.dropRegion(IndexScope);
  bool DroppedText = Mem.dropRegion(TextScope);
  (void)DroppedIndex;
  (void)DroppedText;
  return Result;
}

} // namespace workloads
} // namespace regions

#endif // WORKLOADS_MOSS_H
