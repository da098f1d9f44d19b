//===- region/StdAllocator.h - std::allocator over a region ----*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A standard-library allocator adapter that draws memory from a
/// region. Lets ordinary containers participate in region lifetimes:
///
/// \code
///   Region *R = Mgr.newRegion();
///   std::vector<int, RegionStdAllocator<int>> V{
///       RegionStdAllocator<int>(R)};
///   V.resize(1000);             // storage comes from R
///   // ... deleteRegion reclaims V's storage with everything else.
/// \endcode
///
/// Rules of use:
///  - deallocate() is a no-op (region memory dies with the region), so
///    containers that grow leave their old buffers as region garbage —
///    the normal region idiom.
///  - The region must outlive the container *or* the container's
///    element type must not require destruction (region deletion never
///    runs container-element destructors; destroy the container first
///    if its elements own resources).
///  - Elements may not hold counted RegionPtr fields: container memory
///    is pointer-free storage (the paper's rstralloc side), so no
///    cleanup scan ever destroys them. A RegionPtr there is counted by
///    the barrier but never released, and its target can never be
///    deleted. A bare RegionPtr<U> element is rejected at compile time;
///    a struct that holds one cannot be told apart from other
///    non-trivially-destructible elements, so it is the caller's rule:
///    allocate it with rnew, which scans it.
///
//===----------------------------------------------------------------------===//

#ifndef REGION_STDALLOCATOR_H
#define REGION_STDALLOCATOR_H

#include "region/Region.h"

#include <cstddef>
#include <type_traits>

namespace regions {

template <typename T> class RegionPtr;

namespace detail {
template <typename T> struct IsRegionPtr : std::false_type {};
template <typename U> struct IsRegionPtr<RegionPtr<U>> : std::true_type {};
} // namespace detail

template <typename T> class RegionStdAllocator {
public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  static_assert(alignof(T) <= kDefaultAlignment,
                "regions serve 8-byte-aligned storage");
  static_assert(!detail::IsRegionPtr<std::remove_cv_t<T>>::value,
                "container storage is never scanned: a RegionPtr element's "
                "count would leak; allocate counted pointers with rnew");

  explicit RegionStdAllocator(Region *R) : R(R) {}

  template <typename U>
  RegionStdAllocator(const RegionStdAllocator<U> &Other)
      : R(Other.region()) {}

  T *allocate(std::size_t N) {
    if (N > SIZE_MAX / sizeof(T))
      reportFatalError("RegionStdAllocator: allocation size overflows");
    return static_cast<T *>(R->manager().allocRaw(R, N * sizeof(T)));
  }

  /// Region memory is reclaimed wholesale; individual deallocation is
  /// deliberately a no-op.
  void deallocate(T *, std::size_t) {}

  Region *region() const { return R; }

  template <typename U>
  bool operator==(const RegionStdAllocator<U> &Other) const {
    return R == Other.region();
  }
  template <typename U>
  bool operator!=(const RegionStdAllocator<U> &Other) const {
    return R != Other.region();
  }

private:
  Region *R;
};

} // namespace regions

#endif // REGION_STDALLOCATOR_H
