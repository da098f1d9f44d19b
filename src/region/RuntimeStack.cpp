//===- region/RuntimeStack.cpp - Shadow stack for local refs -------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "region/RuntimeStack.h"
#include "region/PageMap.h"
#include "region/Region.h"

#include <cassert>

using namespace regions;
using namespace regions::rt;

namespace {

/// Adjusts a region's count for a stack-attributed reference, honouring
/// the manager's StackScan feature flag so safe and unsafe regions can
/// coexist on one shadow stack.
void stackAdjust(void *Value, long long Delta) {
  Region *R = regionOf(Value);
  if (R && R->manager().config().StackScan)
    R->rcAdd(Delta);
}

} // namespace

thread_local RGN_CONSTINIT RuntimeStack regions::rt::GThreadStack;

FrameLink *RuntimeStack::pushBaseFrame() {
  assert(!Top && !SlotsHead && "base frame only underlies an empty stack");
  pushFrame(&BaseFrame);
  return &BaseFrame;
}

void RuntimeStack::unscanTopFrame() {
  // Called right after a pop: the popped frame's slots are gone, so the
  // slots down to Top->SlotsAtPush are exactly the new top frame's.
  ++Stats.FramesUnscanned;
  for (SlotNode *N = SlotsHead; N != Top->SlotsAtPush; N = N->Prev) {
    ++Stats.SlotsVisited;
    stackAdjust(*N->Addr, -1);
  }
  Top->Scanned = false;
  --NumScannedFrames;
}

void RuntimeStack::scannedFrameWrite(SlotNode *N, void *NewVal) {
  // Slot lives in a scanned frame: keep the counts exact.
  ++current().Stats.ScannedFrameWrites;
  stackAdjust(*N->Addr, -1);
  stackAdjust(NewVal, +1);
  *N->Addr = NewVal;
}

void RuntimeStack::scanForDelete() {
  ++Stats.Scans;
  if (!Top)
    return;
  // Slots below the top frame, newest first, stopping at the already-
  // scanned prefix (scanned frames are always a bottom prefix, so their
  // slots sit contiguously at the old end of the list).
  for (SlotNode *N = Top->SlotsAtPush; N && !N->Owner->Scanned;
       N = N->Prev) {
    ++Stats.SlotsVisited;
    stackAdjust(*N->Addr, +1);
  }
  for (FrameLink *F = Top->Parent; F && !F->Scanned; F = F->Parent) {
    F->Scanned = true;
    ++NumScannedFrames;
    ++Stats.FramesScanned;
  }
}

RuntimeStack::SlotLocation RuntimeStack::locate(void *const *Addr) const {
  for (const SlotNode *N = SlotsHead; N; N = N->Prev)
    if (N->Addr == Addr)
      return N->Owner->Scanned ? SlotLocation::Scanned
                               : SlotLocation::Unscanned;
  return SlotLocation::NotRegistered;
}

std::size_t
RuntimeStack::countTopFrameRefsTo(const Region *R,
                                  void *const *ExcludeSlot) const {
  if (!Top)
    return 0;
  std::size_t Count = 0;
  for (const SlotNode *N = SlotsHead; N != Top->SlotsAtPush; N = N->Prev) {
    if (N->Addr == ExcludeSlot)
      continue;
    if (regionOf(*N->Addr) == R)
      ++Count;
  }
  return Count;
}

void RuntimeStack::resetForTesting() {
  Top = nullptr;
  SlotsHead = nullptr;
  NumFrames = 0;
  NumScannedFrames = 0;
  NumRegisteredSlots = 0;
  BaseFrame = FrameLink{};
  Stats = Counters{};
}
