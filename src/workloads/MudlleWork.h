//===- workloads/MudlleWork.h - mudlle and lcc compile workloads -*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two compiler benchmarks:
///
///  - mudlle: "a byte-code compiler for a scheme-like language... The
///    same 500-line file is compiled 100 times." One region holds each
///    compile's AST; per-function compile regions come from the
///    Compiler itself.
///
///  - lcc: the paper uses its own modified C compiler on a 6000-line
///    file, creating "a region for every hundred statements compiled".
///    We approximate with the mud compiler on a much larger program,
///    compiled in chunks so code regions turn over during the run (see
///    DESIGN.md substitutions).
///
//===----------------------------------------------------------------------===//

#ifndef WORKLOADS_MUDLLEWORK_H
#define WORKLOADS_MUDLLEWORK_H

#include "backend/Models.h"
#include "mudlle/Compiler.h"
#include "mudlle/Parser.h"
#include "mudlle/ProgramGen.h"
#include "mudlle/Vm.h"

#include <string>
#include <vector>

namespace regions {
namespace workloads {

struct MudlleOptions {
  unsigned Iterations = 100; ///< compile the file this many times
  mud::GenOptions Gen;       ///< defaults produce the ~500-line file
  bool RunProgram = true;    ///< execute main() after each compile
};

struct MudlleResult {
  bool Ok = false;
  std::int64_t ProgramValue = 0;
  std::uint64_t AstNodes = 0;
  std::uint64_t CodeWords = 0;
  std::uint64_t Compiles = 0;

  std::uint64_t checksum() const {
    return static_cast<std::uint64_t>(ProgramValue) ^ (AstNodes * 31) ^
           (CodeWords * 7) ^ Compiles ^ (Ok ? 1 : 0);
  }
};

/// Compiles (and optionally runs) one source string in fresh regions.
template <class M>
bool compileOnce(M &Mem, const char *Source, MudlleResult &Result,
                 bool Run) {
  [[maybe_unused]] typename M::Frame Frame;
  typename M::Token AstScope = Mem.makeRegion();
  typename M::Token CodeScope = Mem.makeRegion();
  bool Ok = false;
  {
    mud::Parser<M> P(Mem, AstScope, Source);
    mud::SourceFile<M> *File = P.parseFile();
    if (!P.failed()) {
      mud::Compiler<M> C(Mem, CodeScope);
      mud::CompiledProgram<M> *Prog = C.compile(File);
      if (Prog) {
        Result.AstNodes += File->NumNodes;
        Result.CodeWords += Prog->TotalCodeWords;
        if (Run) {
          mud::Vm<M> Machine(*Prog);
          mud::VmResult R = Machine.runMain();
          if (R.Ok) {
            Result.ProgramValue = R.Value;
            Ok = true;
          }
        } else {
          Ok = Prog->MainIndex >= 0 || true;
        }
      }
    }
  }
  bool DroppedAst = Mem.dropRegion(AstScope);
  bool DroppedCode = Mem.dropRegion(CodeScope);
  return Ok && DroppedAst && DroppedCode;
}

/// The mudlle benchmark: same file, many compiles.
template <class M>
MudlleResult runMudlle(M &Mem, const MudlleOptions &Opt) {
  MudlleResult Result;
  std::string Source = mud::ProgramGenerator(Opt.Gen).generate();
  Result.Ok = true;
  for (unsigned I = 0; I != Opt.Iterations; ++I) {
    if (!compileOnce(Mem, Source.c_str(), Result, Opt.RunProgram))
      Result.Ok = false;
    ++Result.Compiles;
  }
  return Result;
}

struct LccOptions {
  unsigned NumChunks = 12;          ///< the big file, compiled in chunks
  unsigned FunctionsPerChunk = 24;  ///< ~"region per hundred statements"
  unsigned Repeats = 2;
  std::uint64_t Seed = 11;
};

/// The lcc-like benchmark: one large file in per-chunk regions.
template <class M>
MudlleResult runLcc(M &Mem, const LccOptions &Opt) {
  MudlleResult Result;
  // Generate the chunk sources once (the input file).
  std::vector<std::string> Chunks;
  for (unsigned C = 0; C != Opt.NumChunks; ++C) {
    mud::GenOptions G;
    G.NumFunctions = Opt.FunctionsPerChunk;
    G.StmtsPerFunction = 7;
    G.Seed = Opt.Seed + C;
    Chunks.push_back(mud::ProgramGenerator(G).generate());
  }
  Result.Ok = true;
  for (unsigned R = 0; R != Opt.Repeats; ++R) {
    // A checksum that may wrap: accumulate unsigned (defined modulo
    // 2^64) and convert once, which gives the two's-complement value.
    std::uint64_t Sum = 0;
    for (const std::string &Chunk : Chunks) {
      if (!compileOnce(Mem, Chunk.c_str(), Result, /*Run=*/true))
        Result.Ok = false;
      Sum += static_cast<std::uint64_t>(Result.ProgramValue);
      ++Result.Compiles;
    }
    Result.ProgramValue = static_cast<std::int64_t>(Sum);
  }
  return Result;
}

} // namespace workloads
} // namespace regions

#endif // WORKLOADS_MUDLLEWORK_H
