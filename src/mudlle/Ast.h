//===- mudlle/Ast.h - AST for the mud language -----------------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax trees, templated over the memory model so child
/// links are barriered RegionPtrs on region backends and plain pointers
/// on malloc backends — the two compiled versions of the paper's
/// benchmarks. All node links within one file's AST are sameregion in
/// the paper's organization ("one region holds the abstract syntax tree
/// of the file being compiled").
///
//===----------------------------------------------------------------------===//

#ifndef MUDLLE_AST_H
#define MUDLLE_AST_H

#include "backend/Models.h"
#include "mudlle/Lexer.h"

#include <cstdint>
#include <type_traits>

namespace regions {
namespace mud {

enum class ExprKind : std::uint8_t {
  IntLit,
  VarRef,
  Unary,  ///< Op applied to Lhs
  Binary, ///< Lhs Op Rhs
  Call,   ///< Callee name, Args chained via Next
};

enum class BinOp : std::uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
};

enum class UnOp : std::uint8_t { Neg, Not };

template <class M> struct Expr {
  template <class T> using Ptr = typename M::template Ptr<T>;

  ExprKind Kind = ExprKind::IntLit;
  BinOp Bin = BinOp::Add;
  UnOp Un = UnOp::Neg;
  std::int32_t IntVal = 0;
  const char *Name = nullptr; ///< VarRef/Call: region-copied identifier
  Ptr<Expr> Lhs;
  Ptr<Expr> Rhs;
  Ptr<Expr> Args; ///< Call: first argument
  Ptr<Expr> Next; ///< argument chaining
  std::uint32_t Line = 0;

  /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
  using RegionCountOnly = Expr;
};

enum class StmtKind : std::uint8_t {
  VarDecl, ///< var Name = Value;
  Assign,  ///< Name = Value;
  If,      ///< if (Cond) Body else ElseBody
  While,   ///< while (Cond) Body
  Return,  ///< return Value;
  ExprStmt,
};

template <class M> struct Stmt {
  template <class T> using Ptr = typename M::template Ptr<T>;

  StmtKind Kind = StmtKind::ExprStmt;
  const char *Name = nullptr;
  Ptr<Expr<M>> Value;
  Ptr<Stmt> Body;
  Ptr<Stmt> ElseBody;
  Ptr<Stmt> Next; ///< statement sequencing
  std::uint32_t Line = 0;

  /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
  using RegionCountOnly = Stmt;
};

/// One parameter name in a function's parameter list.
template <class M> struct Param {
  const char *Name = nullptr;
  typename M::template Ptr<Param> Next;

  /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
  using RegionCountOnly = Param;
};

template <class M> struct Function {
  template <class T> using Ptr = typename M::template Ptr<T>;

  const char *Name = nullptr;
  Ptr<Param<M>> Params;
  Ptr<Stmt<M>> Body;
  Ptr<Function> Next; ///< next function in the file
  std::uint32_t NumParams = 0;
  std::uint32_t Line = 0;

  /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
  using RegionCountOnly = Function;
};

/// A parsed source file: list of functions, all in one region.
template <class M> struct SourceFile {
  typename M::template Ptr<Function<M>> Functions;
  std::uint32_t NumFunctions = 0;
  std::uint32_t NumNodes = 0; ///< AST nodes allocated (statistics)

  /// Cleanup only releases the Ptr links (RegionCountOnly; see rnew).
  using RegionCountOnly = SourceFile;
};

// The markers are checked, not just promised: with raw-pointer links
// every node is trivially destructible, so no destructor body hides
// behind a marker.
static_assert(std::is_trivially_destructible_v<Expr<DirectModel>> &&
                  std::is_trivially_destructible_v<Stmt<DirectModel>> &&
                  std::is_trivially_destructible_v<Param<DirectModel>> &&
                  std::is_trivially_destructible_v<Function<DirectModel>> &&
                  std::is_trivially_destructible_v<SourceFile<DirectModel>>,
              "a RegionCountOnly AST node has a destructor of its own");

} // namespace mud
} // namespace regions

#endif // MUDLLE_AST_H
