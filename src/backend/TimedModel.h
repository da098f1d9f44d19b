//===- backend/TimedModel.h - Instrumented memory-time wrapper -*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A decorator that times every call into the underlying memory model,
/// approximating the paper's Figure 9 instrumentation ("the portion of
/// time spent in these libraries is the memory part of the execution
/// time"). Two caveats relative to the paper, documented in
/// EXPERIMENTS.md: the per-call clock reads add overhead of their own,
/// and write-barrier time (inside RegionPtr stores) is not captured.
///
//===----------------------------------------------------------------------===//

#ifndef BACKEND_TIMEDMODEL_H
#define BACKEND_TIMEDMODEL_H

#include "support/Stopwatch.h"

#include <cstdint>
#include <utility>

namespace regions {

/// Wraps a memory model, accumulating nanoseconds spent in allocation,
/// region management, and disposal. touch() is passed through untimed
/// (it is tracing, not memory management).
template <class M> class TimedModel {
public:
  static constexpr bool kStructuredFree = M::kStructuredFree;
  static constexpr bool kIndividualFree = M::kIndividualFree;

  template <class T> using Ptr = typename M::template Ptr<T>;
  template <class T> using SamePtr = typename M::template SamePtr<T>;
  template <class T> using Local = typename M::template Local<T>;
  using Frame = typename M::Frame;
  using Token = typename M::Token;

  explicit TimedModel(M &Inner) : Inner(Inner) {}

  auto makeRegion() {
    Timer T(Ns);
    return Inner.makeRegion();
  }
  bool dropRegion(Token &Handle) {
    Timer T(Ns);
    return Inner.dropRegion(Handle);
  }

  template <class T, class... Args> T *create(Token &Scope, Args &&...A) {
    Timer Ti(Ns);
    return Inner.template create<T>(Scope, std::forward<Args>(A)...);
  }
  template <class T> T *createArray(Token &Scope, std::size_t N) {
    Timer Ti(Ns);
    return Inner.template createArray<T>(Scope, N);
  }
  char *strdup(Token &Scope, const char *S) {
    Timer T(Ns);
    return Inner.strdup(Scope, S);
  }
  void *allocBytes(Token &Scope, std::size_t N) {
    Timer T(Ns);
    return Inner.allocBytes(Scope, N);
  }
  void *allocBlob(Token &Scope, std::size_t N) {
    Timer T(Ns);
    return Inner.allocBlob(Scope, N);
  }

  template <class T> void dispose(T *P) {
    Timer Ti(Ns);
    Inner.dispose(P);
  }
  template <class T> void disposeArray(T *P, std::size_t N) {
    Timer Ti(Ns);
    Inner.disposeArray(P, N);
  }

  void touch(const void *P, std::size_t N, bool IsWrite = false) {
    Inner.touch(P, N, IsWrite);
  }

  /// Nanoseconds spent inside the wrapped model.
  std::uint64_t memoryNanos() const { return Ns; }

private:
  struct Timer {
    explicit Timer(std::uint64_t &Acc)
        : Acc(Acc), Start(monotonicNanos()) {}
    ~Timer() { Acc += monotonicNanos() - Start; }
    std::uint64_t &Acc;
    std::uint64_t Start;
  };

  M &Inner;
  std::uint64_t Ns = 0;
};

} // namespace regions

#endif // BACKEND_TIMEDMODEL_H
