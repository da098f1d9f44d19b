//===- region/Debug.h - Region debugging aids ------------------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's porting experience (§5.1): "The other difficulty is
/// finding stale pointers that prevent a region from being deleted; an
/// environment for debugging regions would be helpful here." This is
/// that environment: a non-mutating diagnosis of why deleteRegion
/// would refuse, naming every registered stack slot that still points
/// into the region and the residual counted (heap/global) references.
///
//===----------------------------------------------------------------------===//

#ifndef REGION_DEBUG_H
#define REGION_DEBUG_H

#include "region/Region.h"

#include <cstdio>
#include <vector>

namespace regions {

/// Why a deleteRegion call would fail right now.
struct DeletionDiagnosis {
  /// Deletion would succeed (given the excluded handle, if any).
  bool WouldSucceed = false;

  /// The region is shared through a par::ParallelSpace. deleteRegion
  /// and resetRegion abort on a shared region in every configuration,
  /// so WouldSucceed is false; it retires through
  /// ParallelSpace::tryDelete, which weighs the threads' counts too.
  bool Shared = false;

  /// Counted references (from other regions, globals, and already-
  /// scanned frames), excluding the handle when it is counted.
  long long CountedRefs = 0;

  /// Addresses of registered local slots (rt::Ref storage) in
  /// *unscanned* frames whose current value points into the region,
  /// excluding the handle's slot. These are the "stale pointers" the
  /// paper's porters hunted by hand.
  std::vector<void *const *> BlockingStackSlots;

  /// Values those slots currently hold (parallel array).
  std::vector<const void *> BlockingStackValues;
};

/// Diagnoses deletion of \p R as if calling deleteRegion through
/// \p HandleSlot (may be null for anonymous deletion; \p HandleCounted
/// as in RegionManager::deleteRegionImpl). Unlike deleteRegion, this
/// performs no stack scan and changes no state.
DeletionDiagnosis diagnoseDeletion(Region *R, void *const *HandleSlot,
                                   bool HandleCounted);

/// Diagnoses deletion through a registered local handle (rt::Ref) —
/// usable with any slot address.
inline DeletionDiagnosis diagnoseDeletion(Region *R,
                                          void *const *HandleSlot) {
  return diagnoseDeletion(R, HandleSlot, /*HandleCounted=*/false);
}

/// Diagnoses anonymous deletion (no excluded handle).
inline DeletionDiagnosis diagnoseDeletion(Region *R) {
  return diagnoseDeletion(R, nullptr, false);
}

/// Prints a human-readable diagnosis to \p Out (stderr-style report).
void printDiagnosis(const DeletionDiagnosis &D, Region *R,
                    std::FILE *Out = stderr);

/// On-demand rsan validation of one live region (RGN_HARDEN builds;
/// see support/Harden.h): walks every allocation's size header and
/// red-zone canary without mutating the region. Without RGN_HARDEN
/// there is no hardened metadata and the report comes back with
/// Checked == false. Violations are reported, not fatal — pair with
/// printRsanReport, or test clean() directly.
inline RsanReport rsanCheckRegion(const Region *R) {
  return R->manager().rsanValidate(R, /*FatalOnViolation=*/false);
}

/// Prints a human-readable rsan validation report (stderr-style).
void printRsanReport(const RsanReport &Rep, const Region *R,
                     std::FILE *Out = stderr);

} // namespace regions

#endif // REGION_DEBUG_H
