//===- workloads/Tile.h - TextTiling partitioning workload -----*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's tile benchmark: "automatically partitions a set of text
/// files into subsections based on frequency and grouping of words in
/// the text. ... Twenty copies of a 14K text are given as input."
///
/// This is a TextTiling-style implementation (Hearst): tokenize, group
/// words into pseudosentences, score the lexical-cohesion gap between
/// adjacent blocks with cosine similarity, compute depth scores, and
/// report boundaries. Each document is processed inside its own region
/// (the vocabulary table, token stream, and per-gap count vectors churn
/// there); chosen boundaries are copied to a result region.
///
//===----------------------------------------------------------------------===//

#ifndef WORKLOADS_TILE_H
#define WORKLOADS_TILE_H

#include "backend/Models.h"
#include "text/TextGen.h"
#include "text/Tokenizer.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

namespace regions {
namespace workloads {

struct TileOptions {
  unsigned NumDocs = 20; ///< "twenty copies"
  text::TopicalTextOptions Text;
  unsigned WordsPerPseudoSentence = 12;
  unsigned BlockSize = 6; ///< pseudosentences per comparison block
};

struct TileResult {
  std::uint64_t BoundaryHash = 0;
  std::uint64_t TotalBoundaries = 0;
  std::uint64_t TotalTokens = 0;
  std::uint64_t VocabSize = 0;

  std::uint64_t checksum() const {
    return BoundaryHash ^ (TotalBoundaries << 40) ^ TotalTokens ^
           (VocabSize << 20);
  }
};

template <class M>
TileResult runTile(M &Mem, const TileOptions &Opt) {
  TileResult Result;
  text::TopicalText Input = text::generateTopicalText(Opt.Text);
  const std::string &Text = Input.Text;

  [[maybe_unused]] typename M::Frame Frame;
  typename M::Token Results = Mem.makeRegion();

  for (unsigned Doc = 0; Doc != Opt.NumDocs; ++Doc) {
    typename M::Token Scope = Mem.makeRegion();

    // Copy the document into the region (a large, infrequently
    // accessed object) and work from that copy, like the original.
    auto *Buf = static_cast<char *>(Mem.allocBytes(Scope, Text.size()));
    std::memcpy(Buf, Text.data(), Text.size());
    Mem.touch(Buf, Text.size(), true);

    // --- Vocabulary and token stream ----------------------------------
    struct VocabEntry {
      std::uint64_t Hash = 0;
      std::uint32_t Id = 0;
      // Vocabulary chains never leave the document scope: statically
      // sameregion, no barrier (debug-asserted).
      typename M::template SamePtr<VocabEntry> Next;
    };
    constexpr unsigned kBuckets = 512;
    auto *Buckets = Mem.template createArray<
        typename M::template Ptr<VocabEntry>>(Scope, kBuckets);
    std::uint32_t NumWords = 0;

    // Growable token-id array (doubling leaves region garbage).
    std::uint32_t *Tokens = nullptr;
    std::uint32_t NumTokens = 0, CapTokens = 0;

    text::Tokenizer Tok(Buf, Buf + Text.size());
    text::WordSpan W;
    while (Tok.next(W)) {
      Mem.touch(W.Start, W.Len, false);
      std::uint64_t H = text::hashWord(W.Start, W.Len);
      unsigned B = H % kBuckets;
      VocabEntry *E = Buckets[B];
      Mem.touch(&Buckets[B], sizeof(void *), false);
      while (E && E->Hash != H)
        E = E->Next;
      if (!E) {
        E = Mem.template create<VocabEntry>(Scope);
        E->Hash = H;
        E->Id = NumWords++;
        E->Next = Buckets[B];
        Buckets[B] = E;
      }
      Mem.touch(E, sizeof(VocabEntry), false);
      if (NumTokens == CapTokens) {
        std::uint32_t NewCap = CapTokens ? CapTokens * 2 : 256;
        auto *NewTokens = static_cast<std::uint32_t *>(
            Mem.allocBytes(Scope, NewCap * 4));
        if (NumTokens) // the first growth has no buffer to copy from
          std::memcpy(NewTokens, Tokens, NumTokens * 4);
        Tokens = NewTokens;
        CapTokens = NewCap;
      }
      Tokens[NumTokens++] = E->Id;
    }
    Result.TotalTokens += NumTokens;
    Result.VocabSize = NumWords;

    // --- Gap scoring ---------------------------------------------------
    unsigned PsLen = Opt.WordsPerPseudoSentence;
    unsigned NumPs = NumTokens / PsLen;
    unsigned K = Opt.BlockSize;
    std::vector<double> GapScore;
    if (NumPs > 2 * K) {
      for (unsigned Gap = K; Gap + K <= NumPs; ++Gap) {
        // Fresh count vectors per gap: the benchmark's churn.
        auto *Left = static_cast<std::uint32_t *>(
            Mem.allocBytes(Scope, NumWords * 4));
        auto *Right = static_cast<std::uint32_t *>(
            Mem.allocBytes(Scope, NumWords * 4));
        std::memset(Left, 0, NumWords * 4);
        std::memset(Right, 0, NumWords * 4);
        for (unsigned P = Gap - K; P != Gap; ++P)
          for (unsigned T = P * PsLen; T != (P + 1) * PsLen; ++T)
            ++Left[Tokens[T]];
        for (unsigned P = Gap; P != Gap + K; ++P)
          for (unsigned T = P * PsLen; T != (P + 1) * PsLen; ++T)
            ++Right[Tokens[T]];
        Mem.touch(Left, NumWords * 4, true);
        Mem.touch(Right, NumWords * 4, true);
        double Dot = 0, NormL = 0, NormR = 0;
        for (std::uint32_t V = 0; V != NumWords; ++V) {
          Dot += static_cast<double>(Left[V]) * Right[V];
          NormL += static_cast<double>(Left[V]) * Left[V];
          NormR += static_cast<double>(Right[V]) * Right[V];
        }
        GapScore.push_back(
            NormL > 0 && NormR > 0 ? Dot / std::sqrt(NormL * NormR) : 0.0);
      }
    }

    // --- Depth scores and boundary selection ---------------------------
    std::vector<unsigned> Boundaries;
    if (GapScore.size() > 2) {
      // Smooth the gap scores (window 3, as in Hearst's TextTiling) so
      // single-pseudosentence noise does not masquerade as a valley.
      {
        std::vector<double> Smoothed(GapScore.size());
        for (std::size_t G = 0; G != GapScore.size(); ++G) {
          double Sum = GapScore[G];
          int Count = 1;
          if (G > 0) {
            Sum += GapScore[G - 1];
            ++Count;
          }
          if (G + 1 < GapScore.size()) {
            Sum += GapScore[G + 1];
            ++Count;
          }
          Smoothed[G] = Sum / Count;
        }
        GapScore = Smoothed;
      }
      std::vector<double> Depth(GapScore.size(), 0.0);
      for (std::size_t G = 0; G != GapScore.size(); ++G) {
        double PeakL = GapScore[G];
        for (std::size_t L = G; L-- > 0 && GapScore[L] >= PeakL;)
          PeakL = GapScore[L];
        double PeakR = GapScore[G];
        for (std::size_t R = G + 1;
             R < GapScore.size() && GapScore[R] >= PeakR; ++R)
          PeakR = GapScore[R];
        Depth[G] = (PeakL - GapScore[G]) + (PeakR - GapScore[G]);
      }
      double Mean = 0;
      for (double D : Depth)
        Mean += D;
      Mean /= static_cast<double>(Depth.size());
      double Var = 0;
      for (double D : Depth)
        Var += (D - Mean) * (D - Mean);
      double Sd = std::sqrt(Var / static_cast<double>(Depth.size()));
      // Relative cutoff (Hearst) plus a small absolute floor: texts
      // with no real topic shifts have uniformly tiny depths whose
      // noise would otherwise clear a purely relative bar.
      double Cutoff = Mean + Sd / 2.0;
      if (Cutoff < 0.08)
        Cutoff = 0.08;
      for (std::size_t G = 0; G != Depth.size(); ++G) {
        if (Depth[G] <= Cutoff)
          continue;
        // Local maximum only.
        if (G > 0 && Depth[G - 1] > Depth[G])
          continue;
        if (G + 1 < Depth.size() && Depth[G + 1] > Depth[G])
          continue;
        Boundaries.push_back(static_cast<unsigned>(G) + Opt.BlockSize);
      }
    }

    // Copy boundaries into the result region; free the document scope.
    auto *Saved = static_cast<std::uint32_t *>(
        Mem.allocBytes(Results, Boundaries.size() * 4 + 4));
    Saved[0] = static_cast<std::uint32_t>(Boundaries.size());
    for (std::size_t I = 0; I != Boundaries.size(); ++I)
      Saved[I + 1] = Boundaries[I];
    Result.TotalBoundaries += Boundaries.size();
    for (std::size_t I = 0; I != Boundaries.size(); ++I)
      Result.BoundaryHash =
          Result.BoundaryHash * 1000003 + Boundaries[I] + Doc;

    bool Dropped = Mem.dropRegion(Scope);
    (void)Dropped;
  }

  bool Dropped = Mem.dropRegion(Results);
  (void)Dropped;
  return Result;
}

} // namespace workloads
} // namespace regions

#endif // WORKLOADS_TILE_H
