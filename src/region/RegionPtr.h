//===- region/RegionPtr.h - Region pointers with write barriers -*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C@ language distinguishes region pointers (T@) from normal
/// pointers; its compiler emits reference-count updates on region-
/// pointer writes (§3.1, §4.2.2). This header is that compiler's role
/// in library form:
///
///  - RegionPtr<T>: a region pointer stored in the heap or in global
///    storage. Assignment runs the Figure 5 write barrier, with the
///    sameregion optimization (stores within the pointer's own region
///    are never counted). Destruction performs the paper's destroy().
///
///  - rt::Ref<T>: a region pointer in a local variable. Writes are
///    free (deferred counting); the local registers itself with the
///    shadow stack so deleteRegion's stack scan can find it.
///
///  - deleteRegion(...): typed wrappers over deleteRegionImpl that
///    implement the paper's "no references excepting *x" rule for
///    each flavour of handle.
///
//===----------------------------------------------------------------------===//

#ifndef REGION_REGIONPTR_H
#define REGION_REGIONPTR_H

#include "region/PageMap.h"
#include "region/Region.h"
#include "region/RuntimeStack.h"

#include <cassert>
#include <cstddef>
#include <type_traits>

namespace regions {

namespace detail {

/// The Figure 5 write barrier for `*Slot = NewVal`. One inline branch:
/// the old and new values are classified through a single span probe,
/// and the dominant sameregion outcome bumps only the region's
/// own deferred counters — no manager state, no count adjustments. The
/// cross-region remainder (slot classification, in-place ±1 count
/// adjustments) is in barrierCrossRegion.
RGN_ALWAYS_INLINE void barrierAssign(void **Slot, void *NewVal) {
  void *OldVal = *Slot;
  // Null over null — the default-construct / destroy-empty pattern —
  // involves no region and, as in the seed's both-null early exit,
  // records nothing; skip the region lookups entirely.
  if ((reinterpret_cast<std::uintptr_t>(OldVal) |
       reinterpret_cast<std::uintptr_t>(NewVal)) == 0) {
    *Slot = NewVal;
    return;
  }
  ArenaProbe Probe;
  Region *OldR;
  Region *NewR;
  if (!Probe.lookupBoth(OldVal, NewVal, OldR, NewR)) {
    // One of the values is null or outside the arena span; classify
    // each address on its own.
    OldR = Probe.lookup(OldVal);
    NewR = Probe.lookup(NewVal);
  }
  *Slot = NewVal;
  if (RGN_LIKELY(OldR == NewR)) {
    // Rebinding within one region (or two non-region values); the
    // paper's barriers take the same early exit.
    if (OldR)
      OldR->noteSameRegionStore();
    return;
  }
  barrierCrossRegion(Slot, OldR, NewR, Probe);
}

} // namespace detail

/// A counted region pointer for heap and global storage (C@'s T@ in a
/// structure field or global variable). Fields of this type make their
/// enclosing struct non-trivially destructible, which routes it to the
/// scanned allocator — the same discipline C@ enforces with types.
template <typename T> class RegionPtr {
public:
  RegionPtr() = default;
  RegionPtr(std::nullptr_t) {}
  RegionPtr(T *Ptr) { assign(Ptr); }
  RegionPtr(const RegionPtr &Other) { assign(Other.Raw); }
  RegionPtr &operator=(const RegionPtr &Other) {
    assign(Other.Raw);
    return *this;
  }
  RegionPtr &operator=(T *Ptr) {
    assign(Ptr);
    return *this;
  }
  RegionPtr &operator=(std::nullptr_t) {
    assign(nullptr);
    return *this;
  }

  /// The paper's destroy(): releases this reference's count.
  ~RegionPtr() { assign(nullptr); }

  T *get() const { return Raw; }
  T &operator*() const {
    rsanCheck();
    return *Raw;
  }
  T *operator->() const {
    rsanCheck();
    return Raw;
  }
  explicit operator bool() const { return Raw != nullptr; }
  operator T *() const { return Raw; }

  /// Address of the underlying storage; used by deleteRegion.
  void **slotAddress() { return reinterpret_cast<void **>(&Raw); }

private:
  void assign(T *Ptr) {
    detail::barrierAssign(reinterpret_cast<void **>(&Raw),
                          const_cast<void *>(static_cast<const void *>(Ptr)));
#if RGN_HARDEN_ENABLED
    RsanR = regionOf(static_cast<const void *>(Ptr));
#endif
  }

  /// rsan checked dereference: only `*` and `->` are checked — `get()`
  /// and the implicit conversion stay free so comparisons and hashing
  /// of stale pointers (legal, common) raise no false alarms.
  void rsanCheck() const {
#if RGN_HARDEN_ENABLED
    detail::rsanCheckDeref(Raw, RsanR);
#endif
  }

  T *Raw = nullptr; // first member: slotAddress() aliases the object
#if RGN_HARDEN_ENABLED
  /// The pointee's region as of the last assignment; a dereference
  /// re-resolves Raw through the page map and must find it again.
  Region *RsanR = nullptr;
#endif
};

namespace rt {

/// A region pointer held in a local variable (automatic storage only).
/// Writes never touch reference counts — the deferred scheme of §4.2.1
/// — because the slot registers with the shadow stack and is counted
/// only when its frame is scanned.
template <typename T> class Ref {
public:
  Ref() { RuntimeStack::current().registerSlot(&Node, slotAddress()); }
  Ref(T *Ptr) : Ref() { set(Ptr); }
  Ref(const Ref &Other) : Ref() { set(Other.get()); }
  Ref(const RegionPtr<T> &Other) : Ref() { set(Other.get()); }

  Ref &operator=(const Ref &Other) {
    set(Other.get());
    return *this;
  }
  Ref &operator=(T *Ptr) {
    set(Ptr);
    return *this;
  }
  Ref &operator=(std::nullptr_t) {
    set(nullptr);
    return *this;
  }

  ~Ref() {
    // If this frame was scanned (possible only for the quirky
    // write-through-reference cases localWrite handles), keep counts
    // exact by clearing through the runtime before unregistering.
    RuntimeStack::localWrite(&Node, nullptr);
    RuntimeStack::current().unregisterSlot(&Node);
  }

  T *get() const { return Raw; }
  T &operator*() const { return *Raw; }
  T *operator->() const { return Raw; }
  explicit operator bool() const { return Raw != nullptr; }
  operator T *() const { return Raw; }

  void **slotAddress() { return reinterpret_cast<void **>(&Raw); }

  /// This local's shadow-stack record; deleteRegion classifies its
  /// handle through it in O(1).
  const SlotNode *node() const { return &Node; }

  /// Stores through the shadow stack (free unless the frame has been
  /// scanned; see RuntimeStack::localWrite).
  void set(T *Ptr) {
    RuntimeStack::localWrite(
        &Node, const_cast<void *>(static_cast<const void *>(Ptr)));
  }

private:
  T *Raw = nullptr;
  SlotNode Node;
};

/// A local handle to a region, the moral equivalent of the paper's
/// `Region r = newregion()` local. The handle points at the Region
/// structure, which lives in the region's own first page, so the stack
/// scan naturally counts it as a reference into the region.
using RegionHandle = Ref<Region>;

} // namespace rt

/// A region pointer statically known to stay within its own region —
/// the compile-time sameregion recognition the paper lists as planned
/// future work (§5.6): "We have considered various methods of reducing
/// the cost of safety, such as recognizing sameregion pointers at
/// compile-time". Assignment performs no barrier at all; debug builds
/// assert the sameregion property actually holds.
///
/// Use for intra-region links of data structures that never point
/// outside their region (list nexts, tree children built in one
/// region). The cleanup thunk cost also disappears: SameRegionPtr is
/// trivially destructible, so objects whose only pointers are
/// SameRegionPtr fields take the headerless allocation path.
template <typename T> class SameRegionPtr {
public:
  SameRegionPtr() = default;
  SameRegionPtr(std::nullptr_t) {}
  SameRegionPtr(T *Ptr) { assign(Ptr); }
  SameRegionPtr &operator=(T *Ptr) {
    assign(Ptr);
    return *this;
  }
  SameRegionPtr &operator=(std::nullptr_t) {
    Raw = nullptr;
#if RGN_HARDEN_ENABLED
    RsanR = nullptr;
#endif
    return *this;
  }

  T *get() const { return Raw; }
  T &operator*() const {
    rsanCheck();
    return *Raw;
  }
  T *operator->() const {
    rsanCheck();
    return Raw;
  }
  explicit operator bool() const { return Raw != nullptr; }
  operator T *() const { return Raw; }

private:
  void assign(T *Ptr) {
#if RGN_HARDEN_ENABLED
    // Hardened builds turn a violated containment claim from UB (a
    // skipped count that later manifests as a use-after-delete) into an
    // immediate diagnosed error, in release configurations too.
    Region *Home = regionOf(static_cast<void *>(this));
    if (Ptr && Home && regionOf(static_cast<const void *>(Ptr)) != Home)
      reportFatalError("rsan: SameRegionPtr assigned a pointer from "
                       "outside its own region (escaping sameregion "
                       "claim; the store needed a counted barrier)");
    RsanR = Ptr ? regionOf(static_cast<const void *>(Ptr)) : nullptr;
#endif
    assert((!Ptr || regionOf(static_cast<void *>(this)) == nullptr ||
            regionOf(static_cast<const void *>(Ptr)) ==
                regionOf(static_cast<void *>(this))) &&
           "SameRegionPtr must not escape its region");
    Raw = Ptr;
  }

  void rsanCheck() const {
#if RGN_HARDEN_ENABLED
    detail::rsanCheckDeref(Raw, RsanR);
#endif
  }

  T *Raw = nullptr;
#if RGN_HARDEN_ENABLED
  Region *RsanR = nullptr;
#endif
};

static_assert(std::is_trivially_destructible_v<SameRegionPtr<int>>,
              "sameregion pointers need no cleanup");

/// Deletes the region referred to by local handle \p Handle (paper:
/// deleteregion(&r) with r a local). On success the handle is nulled
/// and true is returned; on failure (external references remain) the
/// handle and region are untouched and false is returned. A null
/// handle returns false.
inline bool deleteRegion(rt::Ref<Region> &Handle) {
  Region *R = Handle.get();
  if (!R)
    return false;
  return R->manager().deleteRegionImpl(R, Handle.slotAddress(), false,
                                       Handle.node());
}

/// Deletes through a counted (global or heap) handle. The handle's own
/// count is excepted per the paper's rule, unless the handle is stored
/// inside the region itself (sameregion handles were never counted).
inline bool deleteRegion(RegionPtr<Region> &Handle) {
  Region *R = Handle.get();
  if (!R)
    return false;
  bool Counted = regionOf(Handle.slotAddress()) != R;
  return R->manager().deleteRegionImpl(R, Handle.slotAddress(), Counted);
}

} // namespace regions

#endif // REGION_REGIONPTR_H
