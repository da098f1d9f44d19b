//===- region/PageMap.h - Address-to-region mapping ------------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's allocators "maintain an array mapping page addresses
/// (i.e., memory addresses / 4K) to regions" (§4.1); \c regionOf is the
/// primitive every reference-count operation is built on. That array is
/// taken literally here: the first RegionManager reserves one span of
/// address space (PROT_NONE, never unmapped) cut into kMaxArenas fixed
/// slots, plus one flat page map over the whole span. Each manager
/// claims a slot for its life, carves its pages inside it, and writes
/// only that slot's slice of the map.
///
/// A slot never moves and the span's bounds never change once
/// published, so \c regionOf is one subtraction, one compare and one
/// map load, for every manager alike. Addresses outside the span
/// (stack, globals, malloc memory, null) fail the compare and yield
/// nullptr, which is exactly the "not in a region" answer the write
/// barrier needs; so do span pages no live region owns, because a
/// retiring manager clears its map slice before its slot can be claimed
/// again (see ArenaSlot).
///
//===----------------------------------------------------------------------===//

#ifndef REGION_PAGEMAP_H
#define REGION_PAGEMAP_H

#include "support/Align.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace regions {

class Region;

namespace detail {

/// At most this many RegionManagers are live at once.
inline constexpr unsigned kMaxArenas = 32;

/// Each manager's slot: the largest reserve any caller passes. A
/// manager's ReserveBytes caps its use inside the slot; a manager never
/// spans two slots.
inline constexpr std::size_t kArenaSlotBytes = std::size_t{2} << 30;
inline constexpr std::size_t kArenaSlotPages = kArenaSlotBytes >> kPageShift;
inline constexpr std::size_t kArenaSpanBytes = kMaxArenas * kArenaSlotBytes;

/// The reserved span. Size is 0 until the first manager publishes Base
/// and Map, then kArenaSpanBytes for the rest of the process, so every
/// lookup before then misses. Readers load Size first with acquire:
/// whoever sees the published Size also sees Base and Map.
struct ArenaSpan {
  std::atomic<std::uintptr_t> Size{0};
  std::atomic<std::uintptr_t> Base{0};
  std::atomic<Region **> Map{nullptr};
};

extern ArenaSpan GSpan;

/// A manager's claim on one slot, held for the manager's life. The
/// constructor reserves the span on first use and claims the lowest
/// free slot; it is fatal when \p ReserveBytes exceeds the slot size or
/// every slot is taken. The destructor frees the slot for the next
/// claimant. RegionManager declares its slot before its PageSource, so
/// the retire order is fixed by member destruction: the manager clears
/// its map slice, the PageSource re-protects the slot's pages, and only
/// then does the slot become claimable.
class ArenaSlot {
public:
  explicit ArenaSlot(std::size_t ReserveBytes);
  ~ArenaSlot();

  ArenaSlot(const ArenaSlot &) = delete;
  ArenaSlot &operator=(const ArenaSlot &) = delete;

  /// First byte of the slot.
  char *base() const {
    return reinterpret_cast<char *>(
               GSpan.Base.load(std::memory_order_relaxed)) +
           Index * kArenaSlotBytes;
  }

  /// The slot's slice of the page map, indexed by page within the slot.
  Region **map() const {
    return GSpan.Map.load(std::memory_order_relaxed) +
           Index * kArenaSlotPages;
  }

private:
  unsigned Index;
};

/// rsan checked dereference (RGN_HARDEN; see support/Harden.h): fatal
/// unless \p Ptr still resolves to \p Expected in the page map, i.e.
/// the region a RegionPtr was last assigned under is still live and
/// still owns the pointee's page. Out of line so the (cold, diagnostic)
/// check never bloats dereference sites.
void rsanCheckDeref(const void *Ptr, const Region *Expected);

/// The span read once, for resolving several addresses. The write
/// barrier classifies up to three addresses (old value, new value,
/// slot) per store; each lookup through one probe is a subtraction, a
/// compare and a map load.
class ArenaProbe {
public:
  ArenaProbe() {
    Size = GSpan.Size.load(std::memory_order_acquire);
    Base = GSpan.Base.load(std::memory_order_relaxed);
    Map = GSpan.Map.load(std::memory_order_relaxed);
  }

  Region *lookup(const void *Ptr) const {
    std::uintptr_t Off = reinterpret_cast<std::uintptr_t>(Ptr) - Base;
    return Off < Size ? Map[Off >> kPageShift] : nullptr;
  }

  /// Resolves two addresses with a single OR-combined bounds test,
  /// exact because the span size is a power of two (or 0). Returns
  /// false, without touching the outputs, when either address is
  /// outside the span; the caller then looks each up on its own.
  bool lookupBoth(const void *P1, const void *P2, Region *&R1,
                  Region *&R2) const {
    auto O1 = reinterpret_cast<std::uintptr_t>(P1) - Base;
    auto O2 = reinterpret_cast<std::uintptr_t>(P2) - Base;
    if ((O1 | O2) >= Size)
      return false;
    R1 = Map[O1 >> kPageShift];
    R2 = Map[O2 >> kPageShift];
    return true;
  }

private:
  std::uintptr_t Size;
  std::uintptr_t Base;
  Region *const *Map;
};

static_assert((kArenaSpanBytes & (kArenaSpanBytes - 1)) == 0,
              "lookupBoth's combined test needs a power-of-two span");

} // namespace detail

/// Returns the region containing \p Ptr, or nullptr if \p Ptr does not
/// point into any live region's pages (stack, global, malloc or freed
/// memory). Interior pointers resolve to their region, as in the paper.
inline Region *regionOf(const void *Ptr) {
  return detail::ArenaProbe().lookup(Ptr);
}

} // namespace regions

#endif // REGION_PAGEMAP_H
