//===- backend/Models.h - Memory models for the workloads ------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper compiles each benchmark twice: a region version (in C@)
/// and a malloc/free version. We write each workload *once* as a
/// template over a memory model and instantiate it per backend:
///
///  - RegionModel:  scopes are real regions (safe or unsafe per the
///    manager's SafetyConfig); pointer fields are RegionPtr (barriered),
///    locals are rt::Ref; dispose() is a no-op — memory dies with its
///    region.
///  - DirectModel:  malloc/free (Sun/BSD/Lea) or GC; pointer fields and
///    locals are raw pointers (no barrier cost, as in the paper's C
///    versions); dispose() frees individual objects (a no-op under GC,
///    whose free is disabled); scopes are no-ops.
///  - EmuModel:     the paper's emulation library — the region program
///    shape running on malloc/free, freeing object-by-object at
///    deleteRegion. Used for the malloc rows of the originally
///    region-based programs (mudlle, lcc).
///
/// Workloads therefore contain both lifetime disciplines: they bracket
/// phases in scopes (regions) *and* announce individual object death
/// with dispose() (malloc). Each model implements the half that applies
/// to it, which is exactly how the paper's two program versions differ.
///
//===----------------------------------------------------------------------===//

#ifndef BACKEND_MODELS_H
#define BACKEND_MODELS_H

#include "alloc/MallocInterface.h"
#include "cachesim/CacheSim.h"
#include "emulation/EmulationRegions.h"
#include "region/Regions.h"

#include <cstring>
#include <new>
#include <utility>

namespace regions {

/// Workloads run on real regions (paper: the C@ versions).
class RegionModel {
public:
  static constexpr bool kStructuredFree = true;
  static constexpr bool kIndividualFree = false;

  template <class T> using Ptr = RegionPtr<T>;
  /// For pointer fields the workload can prove never leave their
  /// region (intra-region list links, tree children): the statically
  /// recognized sameregion pointers of §5.6. No barrier, no cleanup
  /// thunk; debug builds assert containment on every store.
  template <class T> using SamePtr = SameRegionPtr<T>;
  template <class T> using Local = rt::Ref<T>;
  using Frame = rt::Frame;
  using Token = rt::RegionHandle;

  explicit RegionModel(RegionManager &Manager, CacheSim *Cache = nullptr)
      : Mgr(Manager), Cache(Cache) {}

  Region *makeRegion() { return Mgr.newRegion(); }

  /// Deletes the region; fails (returning false) if external references
  /// remain and the manager is safe.
  bool dropRegion(Token &Handle) { return deleteRegion(Handle); }

  template <class T, class... Args> T *create(Region *R, Args &&...A) {
    return rnew<T>(R, std::forward<Args>(A)...);
  }

  template <class T> T *createArray(Region *R, std::size_t N) {
    return rnewArray<T>(R, N);
  }

  char *strdup(Region *R, const char *S) { return rstrdup(R, S); }

  /// Pointer-free bulk data (paper: rstralloc). Uninitialized.
  void *allocBytes(Region *R, std::size_t N) { return Mgr.allocRaw(R, N); }

  /// Byte blob on the *normal* (scanned) allocator side: for data that
  /// lives interleaved with pointer-bearing objects, as ralloc'd
  /// buffers do in the paper's programs. Layout: [size][bytes]. The
  /// thunk only reports the size, so it never finalizes.
  void *allocBlob(Region *R, std::size_t N) {
    void *Mem = Mgr.allocScanned(R, N + sizeof(std::size_t), &blobThunk,
                                 /*MayFinalize=*/false);
    *static_cast<std::size_t *>(Mem) = N;
    return static_cast<std::size_t *>(Mem) + 1;
  }

  /// Individual-object death notice: regions reclaim wholesale.
  template <class T> void dispose(T *) {}
  template <class T> void disposeArray(T *, std::size_t) {}

  /// Cache-trace hook for the Figure 10 harness.
  void touch(const void *P, std::size_t N, bool IsWrite = false) {
    if (Cache)
      Cache->access(P, N, IsWrite);
  }

  RegionManager &manager() { return Mgr; }

private:
  static std::size_t blobThunk(void *Payload) {
    return sizeof(std::size_t) + *static_cast<std::size_t *>(Payload);
  }

  RegionManager &Mgr;
  CacheSim *Cache;
};

/// Workloads run on plain malloc/free or the collector (paper: the C
/// versions of cfrac, grobner, tile, moss; the GC rows of every
/// program).
class DirectModel {
public:
  static constexpr bool kStructuredFree = false;
  static constexpr bool kIndividualFree = true;

  template <class T> using Ptr = T *;
  template <class T> using SamePtr = T *;
  template <class T> using Local = T *;
  struct Frame {}; ///< no shadow-stack bookkeeping
  struct Token {}; ///< scopes are no-ops

  /// \p CallFree false disables individual frees (the GC configuration,
  /// and the Bump base-time configuration).
  DirectModel(MallocInterface &Malloc, CacheSim *Cache = nullptr,
              bool CallFree = true)
      : Malloc(Malloc), Cache(Cache), CallFree(CallFree) {}

  Token makeRegion() { return {}; }
  bool dropRegion(Token &) { return true; }

  template <class T, class... Args> T *create(Token &, Args &&...A) {
    return ::new (Malloc.malloc(sizeof(T))) T(std::forward<Args>(A)...);
  }

  template <class T> T *createArray(Token &, std::size_t N) {
    void *Mem = Malloc.malloc(N * sizeof(T));
    std::memset(Mem, 0, N * sizeof(T));
    auto *Elems = static_cast<T *>(Mem);
    for (std::size_t I = 0; I != N; ++I)
      ::new (Elems + I) T();
    return Elems;
  }

  char *strdup(Token &, const char *S) {
    std::size_t Len = std::strlen(S);
    auto *Copy = static_cast<char *>(Malloc.malloc(Len + 1));
    std::memcpy(Copy, S, Len + 1);
    return Copy;
  }

  void *allocBytes(Token &, std::size_t N) { return Malloc.malloc(N); }
  void *allocBlob(Token &T, std::size_t N) { return allocBytes(T, N); }

  template <class T> void dispose(T *P) {
    if (P && CallFree)
      Malloc.free(P);
  }
  template <class T> void disposeArray(T *P, std::size_t) {
    if (P && CallFree)
      Malloc.free(P);
  }

  void touch(const void *P, std::size_t N, bool IsWrite = false) {
    if (Cache)
      Cache->access(P, N, IsWrite);
  }

  MallocInterface &allocator() { return Malloc; }

private:
  MallocInterface &Malloc;
  CacheSim *Cache;
  bool CallFree;
};

/// Workloads run on the emulation library (paper: malloc/free rows of
/// mudlle and lcc).
class EmuModel {
public:
  static constexpr bool kStructuredFree = true;
  static constexpr bool kIndividualFree = false;

  template <class T> using Ptr = T *;
  template <class T> using SamePtr = T *;
  template <class T> using Local = T *;
  struct Frame {};
  using Token = EmuRegion *;

  explicit EmuModel(EmulationRegionLib &Lib, CacheSim *Cache = nullptr)
      : Lib(Lib), Cache(Cache) {}

  EmuRegion *makeRegion() { return Lib.newRegion(); }
  bool dropRegion(Token &R) {
    Lib.deleteRegion(R);
    return true;
  }

  template <class T, class... Args> T *create(Token R, Args &&...A) {
    return ::new (Lib.alloc(R, sizeof(T))) T(std::forward<Args>(A)...);
  }

  template <class T> T *createArray(Token R, std::size_t N) {
    void *Mem = Lib.alloc(R, N * sizeof(T));
    std::memset(Mem, 0, N * sizeof(T));
    auto *Elems = static_cast<T *>(Mem);
    for (std::size_t I = 0; I != N; ++I)
      ::new (Elems + I) T();
    return Elems;
  }

  char *strdup(Token R, const char *S) {
    std::size_t Len = std::strlen(S);
    auto *Copy = static_cast<char *>(Lib.alloc(R, Len + 1));
    std::memcpy(Copy, S, Len + 1);
    return Copy;
  }

  void *allocBytes(Token R, std::size_t N) { return Lib.alloc(R, N); }
  void *allocBlob(Token R, std::size_t N) { return allocBytes(R, N); }

  template <class T> void dispose(T *) {}
  template <class T> void disposeArray(T *, std::size_t) {}

  void touch(const void *P, std::size_t N, bool IsWrite = false) {
    if (Cache)
      Cache->access(P, N, IsWrite);
  }

  EmulationRegionLib &lib() { return Lib; }

private:
  EmulationRegionLib &Lib;
  CacheSim *Cache;
};

/// Arena adapter: substrates that only need raw byte allocation
/// (bignums, polynomial term arrays) take any type with an
/// alloc(size_t) member; this binds a model + scope pair to that shape.
template <class M> struct ScopedArena {
  M &Mem;
  typename M::Token &Scope;
  void *alloc(std::size_t N) { return Mem.allocBytes(Scope, N); }
};

} // namespace regions

#endif // BACKEND_MODELS_H
