//===- region/PageMap.cpp - Address-to-region mapping --------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "region/PageMap.h"
#include "support/Compiler.h"

#include <bit>
#include <mutex>
#include <sys/mman.h>

namespace regions {
namespace detail {

ArenaSpan GSpan;

namespace {
/// Guards slot claims and the one-time span reservation; lookups read
/// the span without it.
std::mutex GSlotLock;
std::uint32_t GSlotsInUse = 0; ///< bit I set: slot I is claimed
static_assert(kMaxArenas == 32, "GSlotsInUse holds one bit per slot");

void *reserve(std::size_t Bytes, int Prot) {
  void *Mem = mmap(nullptr, Bytes, Prot,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Mem == MAP_FAILED)
    reportFatalError("RegionManager: cannot reserve the arena span");
  return Mem;
}
} // namespace

ArenaSlot::ArenaSlot(std::size_t ReserveBytes) {
  if (ReserveBytes > kArenaSlotBytes)
    reportFatalError("RegionManager: ReserveBytes exceeds the 2 GiB arena "
                     "slot");
  std::lock_guard<std::mutex> Guard(GSlotLock);
  if (!GSpan.Size.load(std::memory_order_relaxed)) {
    // Untouched map pages read as zero: "no region" until a manager
    // writes its slice.
    auto *Map = static_cast<Region **>(reserve(
        (kArenaSpanBytes >> kPageShift) * sizeof(Region *),
        PROT_READ | PROT_WRITE));
    void *Span = reserve(kArenaSpanBytes, PROT_NONE);
    GSpan.Base.store(reinterpret_cast<std::uintptr_t>(Span),
                     std::memory_order_relaxed);
    GSpan.Map.store(Map, std::memory_order_relaxed);
    GSpan.Size.store(kArenaSpanBytes, std::memory_order_release);
  }
  if (GSlotsInUse == ~std::uint32_t{0})
    reportFatalError("too many live RegionManagers (no free arena slot)");
  Index = static_cast<unsigned>(std::countr_one(GSlotsInUse));
  GSlotsInUse |= std::uint32_t{1} << Index;
}

ArenaSlot::~ArenaSlot() {
  std::lock_guard<std::mutex> Guard(GSlotLock);
  GSlotsInUse &= ~(std::uint32_t{1} << Index);
}

void rsanCheckDeref(const void *Ptr, const Region *Expected) {
  if (!Ptr || !Expected)
    return;
  if (RGN_LIKELY(regionOf(Ptr) == Expected))
    return;
  reportFatalError("rsan: region pointer dereferenced after its region "
                   "was deleted (or the pointee's page changed hands)");
}

} // namespace detail
} // namespace regions
