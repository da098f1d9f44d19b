//===- examples/region_debugging.cpp - Hunting stale pointers ------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// The paper's porting experience (§5.1): "The other difficulty is
// finding stale pointers that prevent a region from being deleted; an
// environment for debugging regions would be helpful here." This
// example is that environment in action: a refused deletion is
// diagnosed down to the exact stale local, plus the manager's metrics
// table and the mud disassembler for compiler debugging.
//
//===----------------------------------------------------------------------===//

#include "backend/Models.h"
#include "mudlle/Compiler.h"
#include "mudlle/Disasm.h"
#include "mudlle/Parser.h"
#include "region/Metrics.h"
#include "region/Regions.h"

#include <cstdio>

using namespace regions;

namespace {

struct Session {
  int Id = 0;
  RegionPtr<Session> Parent;
};

void huntStalePointer(RegionManager &Mgr) {
  std::printf("-- diagnosing a refused deleteregion --\n");
  rt::Frame Frame;
  rt::RegionHandle R = Mgr.newRegion();
  rt::Ref<Session> Current = rnew<Session>(R);
  Current->Id = 7;
  rt::Ref<Session> Sneaky = Current.get(); // ...the future stale pointer

  Current = nullptr; // we think we cleaned up...
  if (!deleteRegion(R)) {
    std::printf("deleteregion refused; asking the debugger why:\n");
    DeletionDiagnosis D = diagnoseDeletion(R.get(), R.slotAddress());
    printDiagnosis(D, R.get(), stdout);
    std::printf("-> the slot at %p is our forgotten 'Sneaky' local "
                "(%p)\n",
                static_cast<void *>(Sneaky.slotAddress()),
                static_cast<void *>(Sneaky.get()));
    Sneaky = nullptr;
    std::printf("cleared it; deleteregion now: %s\n\n",
                deleteRegion(R) ? "ok" : "STILL refused");
  }
}

void inspectCompilerOutput() {
  std::printf("-- disassembling compiled mud code --\n");
  RegionManager Mgr;
  RegionModel Mem(Mgr);
  rt::Frame Frame;
  RegionModel::Token Ast = Mem.makeRegion();
  RegionModel::Token Code = Mem.makeRegion();
  mud::Parser<RegionModel> P(
      Mem, Ast, "fn abs(x) { if (x < 0) { return -x; } return x; }");
  auto *File = P.parseFile();
  mud::Compiler<RegionModel> C(Mem, Code);
  auto *Prog = C.compile(File);
  if (Prog)
    std::printf("%s", mud::disassemble(*Prog).c_str());
  Mem.dropRegion(Ast);
  Mem.dropRegion(Code);
}

} // namespace

int main() {
  std::printf("Region debugging tools (paper 5.1's wished-for "
              "environment)\n\n");
  RegionManager Mgr;
  huntStalePointer(Mgr);
  inspectCompilerOutput();

  std::printf("\n-- manager metrics --\n");
  printMetrics(Mgr.metrics());
  return Mgr.liveRegionCount() == 0 ? 0 : 1;
}
