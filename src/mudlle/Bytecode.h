//===- mudlle/Bytecode.h - Bytecode for the mud VM -------------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stack-machine bytecode: one 32-bit word per instruction, opcode in
/// the low 8 bits and a signed 24-bit operand above it.
///
//===----------------------------------------------------------------------===//

#ifndef MUDLLE_BYTECODE_H
#define MUDLLE_BYTECODE_H

#include "backend/Models.h"

#include <cassert>
#include <cstdint>
#include <type_traits>

namespace regions {
namespace mud {

enum class Op : std::uint8_t {
  Nop,     ///< placeholder left by the peephole pass
  PushImm, ///< push signed 24-bit operand
  Load,    ///< push local slot [operand]
  Store,   ///< pop into local slot [operand]
  Add,
  Sub,
  Mul,
  Div, ///< division by zero yields 0 (defined language semantics)
  Mod, ///< modulo by zero yields 0
  Neg,
  Not,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  Jmp,  ///< absolute code index
  Jz,   ///< pop; jump if zero
  Jnz,  ///< pop; jump if nonzero
  Call, ///< operand = function index; arguments on the stack
  Ret,  ///< pop return value, pop frame
  Pop,  ///< discard top of stack
};

inline constexpr std::int32_t kMaxImm = (1 << 23) - 1;
inline constexpr std::int32_t kMinImm = -(1 << 23);

inline std::uint32_t encode(Op O, std::int32_t Operand = 0) {
  assert(Operand >= kMinImm && Operand <= kMaxImm && "operand overflow");
  return static_cast<std::uint32_t>(O) |
         (static_cast<std::uint32_t>(Operand) << 8);
}

inline Op opOf(std::uint32_t Word) {
  return static_cast<Op>(Word & 0xff);
}

inline std::int32_t operandOf(std::uint32_t Word) {
  return static_cast<std::int32_t>(Word) >> 8; // arithmetic shift
}

/// A compiled function; the code array lives in the output region's
/// pointer-free storage.
template <class M> struct CompiledFunction {
  const char *Name = nullptr;
  const std::uint32_t *Code = nullptr;
  std::uint32_t CodeLen = 0;
  std::uint16_t NumParams = 0;
  std::uint16_t NumLocals = 0; ///< params + vars
  std::uint32_t Index = 0;
  typename M::template Ptr<CompiledFunction> Next;

  /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
  using RegionCountOnly = CompiledFunction;
};

/// A compiled file.
template <class M> struct CompiledProgram {
  typename M::template Ptr<CompiledFunction<M>> Functions;
  std::uint32_t NumFunctions = 0;
  std::int32_t MainIndex = -1;
  std::uint32_t TotalCodeWords = 0;
  std::uint32_t PeepholeRewrites = 0;

  /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
  using RegionCountOnly = CompiledProgram;
};

// Checked like the AST markers (Ast.h).
static_assert(
    std::is_trivially_destructible_v<CompiledFunction<DirectModel>> &&
        std::is_trivially_destructible_v<CompiledProgram<DirectModel>>,
    "a RegionCountOnly bytecode type has a destructor of its own");

} // namespace mud
} // namespace regions

#endif // MUDLLE_BYTECODE_H
