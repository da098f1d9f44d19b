//===- mudlle/Compiler.h - AST to bytecode compiler ------------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a parsed file to bytecode. Region organization follows the
/// paper's description of mudlle: the AST occupies one region; "one
/// region is created to hold the data structures needed to compile each
/// function" — symbol tables, growable code buffers, and back-patch
/// lists live in a per-function scope that is deleted as soon as the
/// function's code has been finalized into the output scope.
///
/// A peephole pass folds constant arithmetic in place (replacing the
/// folded prefix with Nops so jump targets stay valid).
///
//===----------------------------------------------------------------------===//

#ifndef MUDLLE_COMPILER_H
#define MUDLLE_COMPILER_H

#include "mudlle/Ast.h"
#include "mudlle/Bytecode.h"

#include <cstring>
#include <type_traits>

namespace regions {
namespace mud {

template <class M> class Compiler {
public:
  Compiler(M &Mem, typename M::Token &OutScope)
      : Mem(Mem), Out(OutScope) {
    // The table entries' RegionCountOnly markers, checked like the AST's
    // (Ast.h). Here rather than beside the entries: only a member
    // function body sees Compiler<DirectModel> complete.
    static_assert(
        std::is_trivially_destructible_v<
            typename Compiler<DirectModel>::FnEntry> &&
            std::is_trivially_destructible_v<
                typename Compiler<DirectModel>::LocalEntry>,
        "a RegionCountOnly compiler table has a destructor of its own");
  }

  /// Compiles \p File; returns null and sets failed() on error.
  CompiledProgram<M> *compile(const SourceFile<M> *File) {
    auto *Prog = Mem.template create<CompiledProgram<M>>(Out);

    // File-level function table, in its own compile scope (freed when
    // compilation of the file completes).
    [[maybe_unused]] typename M::Frame F;
    typename M::Token FileScope = Mem.makeRegion();
    {
      FnEntry *Fns = nullptr;
      std::uint32_t Index = 0;
      for (Function<M> *Fn = File->Functions; Fn; Fn = Fn->Next) {
        if (findFn(Fns, Fn->Name)) {
          fail("duplicate function name", Fn->Line);
          break;
        }
        auto *E = Mem.template create<FnEntry>(FileScope);
        E->Name = Fn->Name;
        E->Index = Index;
        E->NumParams = Fn->NumParams;
        E->Next = Fns;
        Fns = E;
        if (std::strcmp(Fn->Name, "main") == 0)
          Prog->MainIndex = static_cast<std::int32_t>(Index);
        ++Index;
      }
      Prog->NumFunctions = Index;

      CompiledFunction<M> *Last = nullptr;
      Index = 0;
      for (Function<M> *Fn = File->Functions; Fn && !Failed; Fn = Fn->Next) {
        CompiledFunction<M> *C = compileFunction(Fn, Fns, Index++);
        if (!C)
          break;
        if (Last)
          Last->Next = C;
        else
          Prog->Functions = C;
        Last = C;
        Prog->TotalCodeWords += C->CodeLen;
      }
    }
    bool Dropped = Mem.dropRegion(FileScope);
    (void)Dropped;
    Prog->PeepholeRewrites = Rewrites;
    return Failed ? nullptr : Prog;
  }

  bool failed() const { return Failed; }
  const char *errorMessage() const { return ErrorMsg; }
  std::uint32_t errorLine() const { return ErrorLine; }

private:
  template <class> friend class Compiler; // the constructor's marker check

  /// File-level function table entry (lives in the file compile scope).
  struct FnEntry {
    const char *Name = nullptr;
    std::uint32_t Index = 0;
    std::uint32_t NumParams = 0;
    typename M::template Ptr<FnEntry> Next;

    /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
    using RegionCountOnly = FnEntry;
  };

  /// Local-variable table entry (lives in the function compile scope).
  struct LocalEntry {
    const char *Name = nullptr;
    std::uint32_t Slot = 0;
    typename M::template Ptr<LocalEntry> Next;

    /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
    using RegionCountOnly = LocalEntry;
  };

  /// Growable code buffer in the function compile scope. Doubling
  /// leaves the old arrays as region garbage, the classic region
  /// allocation pattern.
  struct CodeBuf {
    std::uint32_t *Data = nullptr;
    std::uint32_t Len = 0;
    std::uint32_t Cap = 0;
  };

  static FnEntry *findFn(FnEntry *Fns, const char *Name) {
    for (FnEntry *E = Fns; E; E = E->Next)
      if (std::strcmp(E->Name, Name) == 0)
        return E;
    return nullptr;
  }

  void fail(const char *Msg, std::uint32_t Line) {
    if (Failed)
      return;
    Failed = true;
    ErrorMsg = Msg;
    ErrorLine = Line;
  }

  void emit(Op O, std::int32_t Operand = 0) {
    if (Buf.Len == Buf.Cap) {
      std::uint32_t NewCap = Buf.Cap ? Buf.Cap * 2 : 64;
      auto *NewData = static_cast<std::uint32_t *>(
          Mem.allocBytes(*FnScope, NewCap * 4));
      if (Buf.Len) // the first growth has no buffer to copy from
        std::memcpy(NewData, Buf.Data, Buf.Len * 4);
      Buf.Data = NewData;
      Buf.Cap = NewCap;
    }
    Buf.Data[Buf.Len++] = encode(O, Operand);
  }

  std::uint32_t here() const { return Buf.Len; }

  void patch(std::uint32_t At, std::int32_t Target) {
    Buf.Data[At] = encode(opOf(Buf.Data[At]), Target);
  }

  CompiledFunction<M> *compileFunction(Function<M> *Fn, FnEntry *Fns,
                                       std::uint32_t Index) {
    // Per-function compile region (the paper's organization).
    [[maybe_unused]] typename M::Frame F;
    typename M::Token Scope = Mem.makeRegion();
    FnScope = &Scope;
    Buf = CodeBuf{};
    LocalEntry *Locals = nullptr;
    std::uint32_t NumLocals = 0;

    for (Param<M> *P = Fn->Params; P; P = P->Next) {
      auto *L = Mem.template create<LocalEntry>(Scope);
      L->Name = P->Name;
      L->Slot = NumLocals++;
      L->Next = Locals;
      Locals = L;
    }

    compileStmts(Fn->Body, Fns, Locals, NumLocals, Scope);
    // Implicit `return 0` at the end of every function.
    emit(Op::PushImm, 0);
    emit(Op::Ret);

    peephole();

    CompiledFunction<M> *C = nullptr;
    if (!Failed) {
      // Finalize into the output scope; code words are pointer-free.
      auto *Code = static_cast<std::uint32_t *>(
          Mem.allocBytes(Out, Buf.Len * 4));
      std::memcpy(Code, Buf.Data, Buf.Len * 4);
      C = Mem.template create<CompiledFunction<M>>(Out);
      C->Name = copyOut(Fn->Name);
      C->Code = Code;
      C->CodeLen = Buf.Len;
      C->NumParams = static_cast<std::uint16_t>(Fn->NumParams);
      C->NumLocals = static_cast<std::uint16_t>(NumLocals);
      C->Index = Index;
    }

    FnScope = nullptr;
    bool Dropped = Mem.dropRegion(Scope);
    (void)Dropped;
    return C;
  }

  const char *copyOut(const char *S) {
    std::size_t Len = std::strlen(S);
    auto *Copy = static_cast<char *>(Mem.allocBytes(Out, Len + 1));
    std::memcpy(Copy, S, Len + 1);
    return Copy;
  }

  static LocalEntry *findLocal(LocalEntry *Locals, const char *Name) {
    for (LocalEntry *L = Locals; L; L = L->Next)
      if (std::strcmp(L->Name, Name) == 0)
        return L;
    return nullptr;
  }

  void compileStmts(Stmt<M> *S, FnEntry *Fns, LocalEntry *&Locals,
                    std::uint32_t &NumLocals, typename M::Token &Scope) {
    for (; S && !Failed; S = S->Next)
      compileStmt(S, Fns, Locals, NumLocals, Scope);
  }

  void compileStmt(Stmt<M> *S, FnEntry *Fns, LocalEntry *&Locals,
                   std::uint32_t &NumLocals, typename M::Token &Scope) {
    Mem.touch(S, sizeof(*S), false);
    switch (S->Kind) {
    case StmtKind::VarDecl: {
      if (findLocal(Locals, S->Name)) {
        fail("redeclared variable", S->Line);
        return;
      }
      auto *L = Mem.template create<LocalEntry>(Scope);
      L->Name = S->Name;
      L->Slot = NumLocals++;
      L->Next = Locals;
      Locals = L;
      compileExpr(S->Value, Fns, Locals);
      emit(Op::Store, static_cast<std::int32_t>(L->Slot));
      return;
    }
    case StmtKind::Assign: {
      LocalEntry *L = findLocal(Locals, S->Name);
      if (!L) {
        fail("assignment to undeclared variable", S->Line);
        return;
      }
      compileExpr(S->Value, Fns, Locals);
      emit(Op::Store, static_cast<std::int32_t>(L->Slot));
      return;
    }
    case StmtKind::If: {
      compileExpr(S->Value, Fns, Locals);
      std::uint32_t JzAt = here();
      emit(Op::Jz);
      compileStmts(S->Body, Fns, Locals, NumLocals, Scope);
      if (S->ElseBody) {
        std::uint32_t JmpAt = here();
        emit(Op::Jmp);
        patch(JzAt, static_cast<std::int32_t>(here()));
        compileStmts(S->ElseBody, Fns, Locals, NumLocals, Scope);
        patch(JmpAt, static_cast<std::int32_t>(here()));
      } else {
        patch(JzAt, static_cast<std::int32_t>(here()));
      }
      return;
    }
    case StmtKind::While: {
      std::uint32_t Top = here();
      compileExpr(S->Value, Fns, Locals);
      std::uint32_t JzAt = here();
      emit(Op::Jz);
      compileStmts(S->Body, Fns, Locals, NumLocals, Scope);
      emit(Op::Jmp, static_cast<std::int32_t>(Top));
      patch(JzAt, static_cast<std::int32_t>(here()));
      return;
    }
    case StmtKind::Return:
      compileExpr(S->Value, Fns, Locals);
      emit(Op::Ret);
      return;
    case StmtKind::ExprStmt:
      compileExpr(S->Value, Fns, Locals);
      emit(Op::Pop);
      return;
    }
  }

  void compileExpr(Expr<M> *E, FnEntry *Fns, LocalEntry *Locals) {
    if (E)
      Mem.touch(E, sizeof(*E), false);
    if (!E || Failed) {
      if (!Failed)
        emit(Op::PushImm, 0);
      return;
    }
    switch (E->Kind) {
    case ExprKind::IntLit:
      emit(Op::PushImm, E->IntVal);
      return;
    case ExprKind::VarRef: {
      LocalEntry *L = findLocal(Locals, E->Name);
      if (!L) {
        fail("reference to undeclared variable", E->Line);
        return;
      }
      emit(Op::Load, static_cast<std::int32_t>(L->Slot));
      return;
    }
    case ExprKind::Unary:
      compileExpr(E->Lhs, Fns, Locals);
      emit(E->Un == UnOp::Neg ? Op::Neg : Op::Not);
      return;
    case ExprKind::Binary: {
      // && and || short-circuit via jumps.
      if (E->Bin == BinOp::And) {
        compileExpr(E->Lhs, Fns, Locals);
        emit(Op::Not);
        std::uint32_t JAt = here();
        emit(Op::Jnz); // LHS false: result 0
        compileExpr(E->Rhs, Fns, Locals);
        emit(Op::Not);
        emit(Op::Not); // normalize to 0/1
        std::uint32_t EndAt = here();
        emit(Op::Jmp);
        patch(JAt, static_cast<std::int32_t>(here()));
        emit(Op::PushImm, 0);
        patch(EndAt, static_cast<std::int32_t>(here()));
        return;
      }
      if (E->Bin == BinOp::Or) {
        compileExpr(E->Lhs, Fns, Locals);
        std::uint32_t JAt = here();
        emit(Op::Jnz); // LHS true: result 1
        compileExpr(E->Rhs, Fns, Locals);
        emit(Op::Not);
        emit(Op::Not);
        std::uint32_t EndAt = here();
        emit(Op::Jmp);
        patch(JAt, static_cast<std::int32_t>(here()));
        emit(Op::PushImm, 1);
        patch(EndAt, static_cast<std::int32_t>(here()));
        return;
      }
      compileExpr(E->Lhs, Fns, Locals);
      compileExpr(E->Rhs, Fns, Locals);
      switch (E->Bin) {
      case BinOp::Add:
        emit(Op::Add);
        return;
      case BinOp::Sub:
        emit(Op::Sub);
        return;
      case BinOp::Mul:
        emit(Op::Mul);
        return;
      case BinOp::Div:
        emit(Op::Div);
        return;
      case BinOp::Mod:
        emit(Op::Mod);
        return;
      case BinOp::Lt:
        emit(Op::Lt);
        return;
      case BinOp::Le:
        emit(Op::Le);
        return;
      case BinOp::Gt:
        emit(Op::Gt);
        return;
      case BinOp::Ge:
        emit(Op::Ge);
        return;
      case BinOp::Eq:
        emit(Op::Eq);
        return;
      case BinOp::Ne:
        emit(Op::Ne);
        return;
      case BinOp::And:
      case BinOp::Or:
        return; // handled above
      }
      return;
    }
    case ExprKind::Call: {
      FnEntry *Callee = findFn(Fns, E->Name);
      if (!Callee) {
        fail("call to undefined function", E->Line);
        return;
      }
      std::uint32_t NumArgs = 0;
      for (Expr<M> *Arg = E->Args; Arg; Arg = Arg->Next) {
        compileExpr(Arg, Fns, Locals);
        ++NumArgs;
      }
      if (NumArgs != Callee->NumParams) {
        fail("wrong number of arguments", E->Line);
        return;
      }
      emit(Op::Call, static_cast<std::int32_t>(Callee->Index));
      return;
    }
    }
  }

  /// In-place constant folding: (PushImm a, PushImm b, binop) becomes
  /// (Nop, Nop, PushImm fold(a, b)) when the result fits the immediate
  /// field. Lengths are preserved so jump targets stay valid.
  /// Index of the nearest non-Nop instruction strictly before \p I,
  /// or UINT32_MAX if there is none.
  std::uint32_t prevRealInsn(std::uint32_t I) const {
    while (I-- > 0)
      if (opOf(Buf.Data[I]) != Op::Nop)
        return I;
    return UINT32_MAX;
  }

  void peephole() {
    // Walks left to right looking at each foldable binary op; the two
    // producing instructions are found by skipping the Nops earlier
    // folds left behind, so chains like 2 + 3 * 4 cascade in one pass.
    // Rewrites are length-preserving (Nops), keeping jump targets valid.
    for (std::uint32_t I = 2; I < Buf.Len; ++I) {
      std::int64_t R;
      std::uint32_t J2 = prevRealInsn(I);
      if (J2 == UINT32_MAX || opOf(Buf.Data[J2]) != Op::PushImm)
        continue;
      std::uint32_t J1 = prevRealInsn(J2);
      if (J1 == UINT32_MAX || opOf(Buf.Data[J1]) != Op::PushImm)
        continue;
      std::int64_t A = operandOf(Buf.Data[J1]);
      std::int64_t B = operandOf(Buf.Data[J2]);
      switch (opOf(Buf.Data[I])) {
      case Op::Add:
        R = A + B;
        break;
      case Op::Sub:
        R = A - B;
        break;
      case Op::Mul:
        R = A * B;
        break;
      case Op::Lt:
        R = A < B;
        break;
      case Op::Le:
        R = A <= B;
        break;
      case Op::Gt:
        R = A > B;
        break;
      case Op::Ge:
        R = A >= B;
        break;
      case Op::Eq:
        R = A == B;
        break;
      case Op::Ne:
        R = A != B;
        break;
      default:
        continue;
      }
      if (R < kMinImm || R > kMaxImm)
        continue;
      Buf.Data[J1] = encode(Op::Nop);
      Buf.Data[J2] = encode(Op::Nop);
      Buf.Data[I] = encode(Op::PushImm, static_cast<std::int32_t>(R));
      ++Rewrites;
    }
  }

  M &Mem;
  typename M::Token &Out;
  typename M::Token *FnScope = nullptr;
  CodeBuf Buf;
  bool Failed = false;
  const char *ErrorMsg = "";
  std::uint32_t ErrorLine = 0;
  std::uint32_t Rewrites = 0;
};

} // namespace mud
} // namespace regions

#endif // MUDLLE_COMPILER_H
