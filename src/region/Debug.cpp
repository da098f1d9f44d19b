//===- region/Debug.cpp - Region debugging aids ---------------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "region/Debug.h"
#include "region/PageMap.h"
#include "region/RuntimeStack.h"

#include <cinttypes>

using namespace regions;

DeletionDiagnosis regions::diagnoseDeletion(Region *R,
                                            void *const *HandleSlot,
                                            bool HandleCounted) {
  DeletionDiagnosis D;
  const SafetyConfig &Cfg = R->manager().config();
  if (!Cfg.RefCounts && !Cfg.StackScan) {
    D.WouldSucceed = true; // unsafe regions delete unconditionally
    return D;
  }

  auto &Stack = rt::RuntimeStack::current();

  // How much of the count belongs to the excluded handle right now.
  long long HandleInCount = 0;
  if (HandleCounted) {
    HandleInCount = Cfg.RefCounts ? 1 : 0;
  } else if (HandleSlot && Cfg.StackScan &&
             Stack.locate(HandleSlot) ==
                 rt::RuntimeStack::SlotLocation::Scanned) {
    HandleInCount = 1;
  }
  D.CountedRefs = R->referenceCount() - HandleInCount;

  // Unscanned-frame locals pointing into R (they would be found by the
  // deletion-time scan or the transient top-frame count). Unscanned
  // slots are exactly the newest suffix of the intrusive list: scanned
  // frames are always a bottom prefix of the stack.
  if (Cfg.StackScan) {
    for (const auto *N = Stack.slots(); N && !N->Owner->Scanned;
         N = N->Prev) {
      if (N->Addr == HandleSlot)
        continue;
      void *Value = *N->Addr;
      if (regionOf(Value) != R)
        continue;
      D.BlockingStackSlots.push_back(N->Addr);
      D.BlockingStackValues.push_back(Value);
    }
  }

  D.WouldSucceed =
      D.CountedRefs == 0 && D.BlockingStackSlots.empty();
  return D;
}

void regions::printDiagnosis(const DeletionDiagnosis &D, Region *R,
                             std::FILE *Out) {
  std::fprintf(Out, "region %u (%" PRIu64 " objects, %" PRIu64
                    " bytes): deletion would %s\n",
               R->id(), static_cast<std::uint64_t>(R->allocCount()),
               static_cast<std::uint64_t>(R->requestedBytes()),
               D.WouldSucceed ? "succeed" : "FAIL");
  if (D.WouldSucceed)
    return;
  if (D.CountedRefs != 0)
    std::fprintf(Out,
                 "  %lld counted reference(s) from other regions, global "
                 "storage, or scanned frames\n",
                 D.CountedRefs);
  for (std::size_t I = 0; I != D.BlockingStackSlots.size(); ++I)
    std::fprintf(Out, "  live local at %p still points to %p\n",
                 static_cast<const void *>(D.BlockingStackSlots[I]),
                 D.BlockingStackValues[I]);
}

void regions::printRsanReport(const RsanReport &Rep, const Region *R,
                              std::FILE *Out) {
  if (!Rep.Checked) {
    std::fprintf(Out,
                 "region %u: rsan validation skipped (build has no "
                 "hardened metadata; configure with -DRGN_HARDEN=ON)\n",
                 R->id());
    return;
  }
  std::fprintf(Out, "region %u: rsan checked %" PRIu64 " object(s): %s\n",
               R->id(), Rep.ObjectsChecked,
               Rep.clean() ? "clean" : "VIOLATIONS");
  if (Rep.RedZoneViolations != 0)
    std::fprintf(Out,
                 "  %" PRIu64 " red-zone canary overwrite(s) — a write "
                 "ran past the end of an allocation\n",
                 Rep.RedZoneViolations);
  if (Rep.MetadataViolations != 0)
    std::fprintf(Out,
                 "  %" PRIu64 " corrupted size header(s) — wild writes "
                 "or overflow into object metadata\n",
                 Rep.MetadataViolations);
}
