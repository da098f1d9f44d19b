//===- region/RuntimeStack.h - Shadow stack for local refs -----*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's deferred reference counting for local variables (§4.2.1,
/// §4.2.3): writes to locals never touch reference counts; instead the
/// stack carries a *high-water mark*. Frames above the mark ("scanned")
/// have had their live region pointers counted; the invariant (*) keeps
/// at least one frame — the executing one — unscanned, so ordinary local
/// writes are free. deleteRegion scans the unscanned suffix (except the
/// top frame, which it counts transiently, mirroring the paper's
/// scan-then-unscan-on-return of deleteregion's caller), and returning
/// into a scanned frame unscans exactly that frame (the paper patches
/// return addresses; we use RAII frame pops).
///
/// The paper's compiler records live region-pointer locals at each call
/// site; our stand-in is explicit registration: each function holding
/// region-pointer locals declares an rt::Frame, and the locals are
/// rt::Ref<T> values (defined in RegionPtr.h) that register their
/// storage address in the current frame.
///
/// Storage is fully intrusive: the frame record lives inside rt::Frame
/// and the slot record inside rt::Ref, linked into per-thread LIFO
/// lists. Push/pop/register/unregister are a few pointer writes — no
/// vector growth, no allocation — and a slot's scanned/unscanned
/// classification is one load through its owning frame (the frames at
/// or below the high-water mark carry a Scanned flag), so the paths
/// rt::Ref-heavy code hits are all O(1).
///
//===----------------------------------------------------------------------===//

#ifndef REGION_RUNTIMESTACK_H
#define REGION_RUNTIMESTACK_H

#include "support/Compiler.h"

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace regions {

class Region;

namespace rt {

/// Shadow-stack record of one frame, embedded in rt::Frame (and, for
/// the implicit base frame, in the RuntimeStack itself).
struct FrameLink {
  FrameLink *Parent = nullptr;       ///< next older frame
  struct SlotNode *SlotsAtPush = nullptr; ///< newest slot when pushed
  bool Scanned = false;              ///< at or below the high-water mark
};

/// Shadow-stack record of one registered local slot, embedded in
/// rt::Ref. Registration is strictly LIFO (C++ scoping guarantees this
/// for automatic locals), so slots form one intrusive stack.
struct SlotNode {
  void **Addr = nullptr;    ///< address of the local's pointer storage
  SlotNode *Prev = nullptr; ///< next older slot
  FrameLink *Owner = nullptr; ///< frame this slot registered under
};

/// Per-thread shadow stack of frames holding registered local
/// region-pointer slots, plus the high-water mark.
class RuntimeStack {
public:
  /// The calling thread's stack. Inline: resolves to one thread-local
  /// address computation, so Frame push/pop and slot registration pay
  /// no call or lazy-init guard.
  static RuntimeStack &current();

  /// Pushes \p F as the newest frame. Called by rt::Frame.
  RGN_ALWAYS_INLINE void pushFrame(FrameLink *F) {
    F->Parent = Top;
    F->SlotsAtPush = SlotsHead;
    F->Scanned = false;
    Top = F;
    ++NumFrames;
  }

  /// Pops the newest frame. If the pop leaves the new top frame
  /// scanned, that frame is unscanned (counts decremented, mark
  /// lowered), restoring invariant (*). Called by rt::Frame.
  RGN_ALWAYS_INLINE void popFrame(FrameLink *F) {
    assert(Top == F && "frames must pop in LIFO order");
    assert(SlotsHead == F->SlotsAtPush &&
           "locals must be unregistered before their frame pops");
    assert(!F->Scanned && "invariant (*): the top frame is never scanned");
    Top = F->Parent;
    --NumFrames;
    if (RGN_UNLIKELY(Top && Top->Scanned))
      unscanTopFrame();
  }

  /// Registers a local pointer slot in the current frame (creating a
  /// bottom "base" frame if none exists). Called by rt::Ref.
  RGN_ALWAYS_INLINE void registerSlot(SlotNode *N, void **Addr) {
    FrameLink *F = Top;
    if (RGN_UNLIKELY(!F))
      F = pushBaseFrame();
    N->Addr = Addr;
    N->Prev = SlotsHead;
    N->Owner = F;
    SlotsHead = N;
    ++NumRegisteredSlots;
  }

  /// Unregisters the most recently registered slot. Registration is
  /// strictly LIFO, which C++ scoping guarantees for automatic Refs.
  RGN_ALWAYS_INLINE void unregisterSlot(SlotNode *N) {
    assert(SlotsHead == N &&
           "local region pointers must unregister in LIFO order");
    SlotsHead = N->Prev;
    --NumRegisteredSlots;
  }

  /// Stores \p NewVal into the registered slot \p N. Free for slots in
  /// unscanned frames (the common case, by invariant (*)); for a slot
  /// in a scanned frame — reachable only by writing a caller's local
  /// through a reference — the counts are adjusted, the paper's "more
  /// expensive runtime routine" for statically ambiguous writes.
  /// Static: the fast path needs no thread-local state at all.
  RGN_ALWAYS_INLINE static void localWrite(SlotNode *N, void *NewVal) {
    if (RGN_UNLIKELY(N->Owner->Scanned))
      return scannedFrameWrite(N, NewVal);
    *N->Addr = NewVal;
  }

  /// Whether a registered slot's frame has been scanned (its reference
  /// is reflected in region counts). O(1); used by deleteRegion to
  /// classify the handle being deleted.
  static bool nodeScanned(const SlotNode *N) { return N->Owner->Scanned; }

  /// Scans all unscanned frames except the newest one, incrementing the
  /// reference count of every region referenced by a registered local,
  /// and raises the high-water mark. Called by deleteRegion.
  void scanForDelete();

  /// Where a slot currently sits relative to the mark.
  enum class SlotLocation { NotRegistered, Scanned, Unscanned };

  /// Classifies \p Addr. Linear in the number of registered slots;
  /// diagnostics only (deleteRegion classifies via nodeScanned).
  SlotLocation locate(void *const *Addr) const;

  /// Counts references to \p R from the *top* frame's slots, excluding
  /// \p ExcludeSlot (the handle being deleted). This is the transient
  /// contribution of the frame the paper scans and immediately unscans
  /// on return from deleteregion.
  std::size_t countTopFrameRefsTo(const Region *R,
                                  void *const *ExcludeSlot) const;

  std::size_t frameCount() const { return NumFrames; }
  std::size_t scannedFrameCount() const { return NumScannedFrames; }
  std::size_t slotCount() const { return NumRegisteredSlots; }

  /// Newest registered slot, start of the intrusive slot list (older
  /// slots via SlotNode::Prev). Used by the conservative collector,
  /// which treats every registered local as a root, and by diagnostics.
  const SlotNode *slots() const { return SlotsHead; }

  /// Instrumentation for the Figure 11 harness.
  struct Counters {
    std::uint64_t Scans = 0;
    std::uint64_t FramesScanned = 0;
    std::uint64_t FramesUnscanned = 0;
    std::uint64_t SlotsVisited = 0;
    std::uint64_t ScannedFrameWrites = 0;
  };
  const Counters &counters() const { return Stats; }

  /// Drops all frames and slots; tests only.
  void resetForTesting();

private:
  /// Out-of-line: activates the implicit base frame for frameless
  /// clients; returns it.
  FrameLink *pushBaseFrame();

  /// Out-of-line: unscans the (new) top frame after a pop left every
  /// remaining frame scanned — the paper's unscan-on-return, triggered
  /// for exactly one frame.
  void unscanTopFrame();

  /// Out-of-line: a write to a slot in a scanned frame keeps counts
  /// exact.
  static void scannedFrameWrite(SlotNode *N, void *NewVal);

  FrameLink *Top = nullptr;
  SlotNode *SlotsHead = nullptr;
  std::size_t NumFrames = 0;
  std::size_t NumScannedFrames = 0;
  std::size_t NumRegisteredSlots = 0;
  FrameLink BaseFrame; ///< storage for the implicit base frame
  Counters Stats;
};

/// The calling thread's shadow stack. constinit (all-zero) so access
/// needs no thread-safe initialization guard.
extern thread_local RGN_CONSTINIT RuntimeStack GThreadStack;

inline RuntimeStack &RuntimeStack::current() { return GThreadStack; }

/// RAII shadow-stack frame. Declare one at the top of any function that
/// keeps region pointers in locals (before any rt::Ref local).
class Frame {
public:
  Frame() { RuntimeStack::current().pushFrame(&Link); }
  Frame(const Frame &) = delete;
  Frame &operator=(const Frame &) = delete;
  ~Frame() { RuntimeStack::current().popFrame(&Link); }

private:
  FrameLink Link;
};

} // namespace rt
} // namespace regions

#endif // REGION_RUNTIMESTACK_H
