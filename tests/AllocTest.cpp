//===- tests/AllocTest.cpp - malloc baseline tests ------------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Unit tests for each malloc baseline plus parameterized property tests
// that run a randomized alloc/free workload against every allocator and
// verify payload integrity, alignment, and statistics invariants.
//
//===----------------------------------------------------------------------===//

#include "alloc/BestFitAllocator.h"
#include "alloc/BumpAllocator.h"
#include "alloc/LeaAllocator.h"
#include "alloc/PowerOfTwoAllocator.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

using namespace regions;

namespace {

//===----------------------------------------------------------------------===//
// Allocator-specific unit tests
//===----------------------------------------------------------------------===//

TEST(PowerOfTwoTest, ChunkSizesRoundToPowers) {
  EXPECT_EQ(PowerOfTwoAllocator::chunkBytesFor(1), 16u);
  EXPECT_EQ(PowerOfTwoAllocator::chunkBytesFor(8), 16u);
  EXPECT_EQ(PowerOfTwoAllocator::chunkBytesFor(9), 32u);
  EXPECT_EQ(PowerOfTwoAllocator::chunkBytesFor(24), 32u);
  EXPECT_EQ(PowerOfTwoAllocator::chunkBytesFor(25), 64u);
  EXPECT_EQ(PowerOfTwoAllocator::chunkBytesFor(100), 128u);
  EXPECT_EQ(PowerOfTwoAllocator::chunkBytesFor(5000), 8192u);
}

TEST(PowerOfTwoTest, FreeThenAllocReusesChunk) {
  PowerOfTwoAllocator A(1 << 24);
  void *P = A.malloc(100);
  A.free(P);
  void *Q = A.malloc(100);
  EXPECT_EQ(P, Q) << "LIFO freelist reuse";
}

TEST(PowerOfTwoTest, DifferentBucketsDifferentChunks) {
  PowerOfTwoAllocator A(1 << 24);
  void *P = A.malloc(10);
  A.free(P);
  void *Q = A.malloc(2000); // different bucket: no reuse
  EXPECT_NE(P, Q);
}

TEST(PowerOfTwoTest, HighInternalFragmentation) {
  // 65-byte requests burn 128-byte chunks: OS use should be roughly 2x
  // the requested bytes, the paper's "very large memory overhead".
  PowerOfTwoAllocator A(1 << 26);
  constexpr int N = 10000;
  for (int I = 0; I < N; ++I)
    A.malloc(120); // +8 header -> 128 exactly? 120+8=128, pick 121
  PowerOfTwoAllocator B(1 << 26);
  for (int I = 0; I < N; ++I)
    B.malloc(121); // 121+8 = 129 -> 256-byte chunks
  EXPECT_GT(B.osBytes(), A.osBytes() * 3 / 2);
}

TEST(LeaTest, SplitsLargeChunks) {
  LeaAllocator A(1 << 24);
  void *P = A.malloc(10000);
  A.free(P);
  // A small allocation should carve from the freed chunk, not grow.
  std::size_t Os = A.osBytes();
  void *Q = A.malloc(100);
  EXPECT_EQ(A.osBytes(), Os);
  EXPECT_NE(Q, nullptr);
}

TEST(LeaTest, CoalescesNeighbours) {
  LeaAllocator A(1 << 24);
  // Allocate three adjacent blocks, free them all, then ask for their
  // combined size: coalescing must make that possible without growth.
  void *P1 = A.malloc(1000);
  void *P2 = A.malloc(1000);
  void *P3 = A.malloc(1000);
  // Plug the tail so the segment's wilderness doesn't serve the big
  // request by itself.
  void *Plug = A.malloc(32);
  (void)Plug;
  std::size_t Os = A.osBytes();
  A.free(P2);
  A.free(P1);
  A.free(P3);
  void *Big = A.malloc(2900);
  EXPECT_EQ(A.osBytes(), Os) << "coalesced neighbours must serve this";
  EXPECT_NE(Big, nullptr);
}

TEST(LeaTest, TightPackingOfSmallObjects) {
  // Lea should pack 24-byte objects at ~32 bytes per object, far
  // tighter than BSD's 32-byte chunks + page carving... comparable; the
  // interesting check: OS bytes stay within 2x of requested.
  LeaAllocator A(1 << 26);
  constexpr int N = 20000;
  for (int I = 0; I < N; ++I)
    A.malloc(24);
  // 24-byte requests occupy 40-byte chunks; allow one segment of slack.
  EXPECT_LT(A.osBytes(), std::size_t{40} * N + (1 << 20));
}

TEST(BestFitTest, BestFitPicksSmallestAdequate) {
  BestFitAllocator A(1 << 24);
  // Create free chunks of several sizes.
  void *Big = A.malloc(8000);
  void *G1 = A.malloc(32);
  void *Mid = A.malloc(2000);
  void *G2 = A.malloc(32);
  void *Small = A.malloc(500);
  void *G3 = A.malloc(32);
  A.free(Big);
  A.free(Mid);
  A.free(Small);
  // A 400-byte request best-fits the 500-byte hole.
  void *P = A.malloc(400);
  EXPECT_EQ(P, Small) << "best fit must choose the 500-byte hole";
  (void)G1;
  (void)G2;
  (void)G3;
}

TEST(BestFitTest, DuplicateSizesHandled) {
  BestFitAllocator A(1 << 24);
  std::vector<void *> Ps;
  for (int I = 0; I < 100; ++I)
    Ps.push_back(A.malloc(256));
  std::vector<void *> Guards;
  // Interleave guards so frees do not coalesce.
  for (int I = 0; I < 100; I += 2)
    std::swap(Ps[I], Ps[I]);
  for (int I = 0; I < 100; I += 2)
    A.free(Ps[I]);
  for (int I = 0; I < 100; I += 2)
    Ps[I] = A.malloc(256);
  for (int I = 1; I < 100; I += 2)
    A.free(Ps[I]);
  SUCCEED();
}

TEST(BumpTest, FreeIsNoOp) {
  BumpAllocator A(1 << 24);
  void *P = A.malloc(100);
  A.free(P);
  void *Q = A.malloc(100);
  EXPECT_NE(P, Q) << "bump never reuses";
}

//===----------------------------------------------------------------------===//
// Parameterized property tests over all baselines
//===----------------------------------------------------------------------===//

struct AllocatorFactory {
  const char *Name;
  std::function<std::unique_ptr<MallocInterface>()> Make;
};

// Print the parameter by name. Without this gtest dumps the raw bytes,
// which hold code and data addresses, so the listed test names would
// change with every build and every ASLR layout.
void PrintTo(const AllocatorFactory &F, std::ostream *OS) { *OS << F.Name; }

class AllAllocatorsTest : public ::testing::TestWithParam<AllocatorFactory> {};

TEST_P(AllAllocatorsTest, BasicRoundTrip) {
  auto A = GetParam().Make();
  void *P = A->malloc(64);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x7f, 64);
  A->free(P);
}

TEST_P(AllAllocatorsTest, AlignmentAlwaysEightBytes) {
  auto A = GetParam().Make();
  Prng Rng(1);
  for (int I = 0; I < 500; ++I) {
    void *P = A->malloc(1 + Rng.nextBelow(300));
    EXPECT_TRUE(isAligned(P, kDefaultAlignment));
  }
}

TEST_P(AllAllocatorsTest, ZeroSizeAllocationIsValid) {
  auto A = GetParam().Make();
  void *P = A->malloc(0);
  EXPECT_NE(P, nullptr);
  A->free(P);
}

TEST_P(AllAllocatorsTest, FreeNullIsNoOp) {
  auto A = GetParam().Make();
  A->free(nullptr);
  EXPECT_EQ(A->stats().TotalFrees, 0u);
}

TEST_P(AllAllocatorsTest, StatsTrackRequests) {
  auto A = GetParam().Make();
  void *P = A->malloc(100);
  void *Q = A->malloc(200);
  EXPECT_EQ(A->stats().TotalAllocs, 2u);
  EXPECT_EQ(A->stats().TotalRequestedBytes, 300u);
  EXPECT_EQ(A->stats().LiveRequestedBytes, 300u);
  A->free(P);
  EXPECT_EQ(A->stats().LiveRequestedBytes, 200u);
  EXPECT_EQ(A->stats().MaxLiveRequestedBytes, 300u);
  A->free(Q);
  EXPECT_EQ(A->stats().LiveRequestedBytes, 0u);
}

TEST_P(AllAllocatorsTest, PayloadsDoNotOverlap) {
  auto A = GetParam().Make();
  Prng Rng(42);
  struct Block {
    unsigned char *Ptr;
    std::size_t Size;
    unsigned char Tag;
  };
  std::vector<Block> Live;
  for (int Step = 0; Step < 4000; ++Step) {
    if (Live.size() > 64 || (Rng.nextBool(0.4) && !Live.empty())) {
      std::size_t Victim = Rng.nextBelow(Live.size());
      Block B = Live[Victim];
      // Verify the whole payload still carries its tag.
      for (std::size_t I = 0; I < B.Size; ++I)
        ASSERT_EQ(B.Ptr[I], B.Tag) << "payload corrupted (overlap?)";
      A->free(B.Ptr);
      Live[Victim] = Live.back();
      Live.pop_back();
    } else {
      std::size_t Size = 1 + Rng.nextSkewed(0, 600);
      auto *P = static_cast<unsigned char *>(A->malloc(Size));
      ASSERT_NE(P, nullptr);
      auto Tag = static_cast<unsigned char>(1 + (Step % 251));
      std::memset(P, Tag, Size);
      Live.push_back({P, Size, Tag});
    }
  }
  for (const Block &B : Live) {
    for (std::size_t I = 0; I < B.Size; ++I)
      ASSERT_EQ(B.Ptr[I], B.Tag);
    A->free(B.Ptr);
  }
}

TEST_P(AllAllocatorsTest, LargeAllocations) {
  auto A = GetParam().Make();
  for (std::size_t Size : {std::size_t{5000}, std::size_t{70000},
                           std::size_t{1} << 20}) {
    auto *P = static_cast<char *>(A->malloc(Size));
    ASSERT_NE(P, nullptr);
    P[0] = 'a';
    P[Size - 1] = 'z';
    EXPECT_EQ(P[0], 'a');
    EXPECT_EQ(P[Size - 1], 'z');
    A->free(P);
  }
}

TEST_P(AllAllocatorsTest, ChurnDoesNotLeakOsMemory) {
  // Steady-state churn must reach a fixed point in OS usage.
  auto A = GetParam().Make();
  Prng Rng(7);
  std::vector<void *> Live;
  for (int Warm = 0; Warm < 20000; ++Warm) {
    if (Live.size() >= 128) {
      A->free(Live[Warm % Live.size()]);
      Live[Warm % Live.size()] = A->malloc(16 + Rng.nextBelow(200));
    } else {
      Live.push_back(A->malloc(16 + Rng.nextBelow(200)));
    }
  }
  std::size_t Os = A->osBytes();
  for (int Step = 0; Step < 20000; ++Step) {
    std::size_t I = Rng.nextBelow(Live.size());
    A->free(Live[I]);
    Live[I] = A->malloc(16 + Rng.nextBelow(200));
  }
  EXPECT_LE(A->osBytes(), Os + 64 * kPageSize)
      << "steady-state churn must not grow the heap unboundedly";
  for (void *P : Live)
    A->free(P);
}

TEST_P(AllAllocatorsTest, ManySizesStressWithVerification) {
  auto A = GetParam().Make();
  Prng Rng(1234);
  struct Block {
    std::uint64_t *Ptr;
    std::size_t Words;
    std::uint64_t Seed;
  };
  std::vector<Block> Live;
  auto Fill = [](Block &B) {
    for (std::size_t I = 0; I < B.Words; ++I)
      B.Ptr[I] = B.Seed ^ (I * 0x9e3779b97f4a7c15ULL);
  };
  auto Check = [](const Block &B) {
    for (std::size_t I = 0; I < B.Words; ++I)
      ASSERT_EQ(B.Ptr[I], B.Seed ^ (I * 0x9e3779b97f4a7c15ULL));
  };
  for (int Step = 0; Step < 3000; ++Step) {
    if (!Live.empty() && Rng.nextBool(0.45)) {
      std::size_t I = Rng.nextBelow(Live.size());
      Check(Live[I]);
      A->free(Live[I].Ptr);
      Live[I] = Live.back();
      Live.pop_back();
    } else {
      std::size_t Words = 1 + Rng.nextSkewed(0, 2000);
      Block B{static_cast<std::uint64_t *>(A->malloc(Words * 8)), Words,
              Rng.next()};
      ASSERT_NE(B.Ptr, nullptr);
      Fill(B);
      Live.push_back(B);
    }
  }
  for (Block &B : Live) {
    Check(B);
    A->free(B.Ptr);
  }
  EXPECT_EQ(A->stats().LiveRequestedBytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, AllAllocatorsTest,
    ::testing::Values(
        AllocatorFactory{"sun",
                         [] {
                           return std::make_unique<BestFitAllocator>(
                               std::size_t{1} << 28);
                         }},
        AllocatorFactory{"bsd",
                         [] {
                           return std::make_unique<PowerOfTwoAllocator>(
                               std::size_t{1} << 28);
                         }},
        AllocatorFactory{"lea",
                         [] {
                           return std::make_unique<LeaAllocator>(
                               std::size_t{1} << 28);
                         }}),
    [](const ::testing::TestParamInfo<AllocatorFactory> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
