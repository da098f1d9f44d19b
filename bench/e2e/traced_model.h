//===- bench/e2e/traced_model.h - Span-recording memory model ---*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced counterpart of backend/TimedModel.h: a decorator over a
/// workload memory model that times every call, split by call kind, into
/// a Tracer. Region creation and deletion become child spans of the
/// current job; allocations are aggregated per job unless they take the
/// large-object path. Frames, locals, pointer stores and touch() pass
/// through untimed, as in TimedModel.
///
//===----------------------------------------------------------------------===//

#ifndef REGBENCH_TRACED_MODEL_H
#define REGBENCH_TRACED_MODEL_H

#include "harness.h"

#include <cstring>
#include <utility>

namespace regbench {

template <class M> class TracedModel {
public:
  static constexpr bool kStructuredFree = M::kStructuredFree;
  static constexpr bool kIndividualFree = M::kIndividualFree;

  template <class T> using Ptr = typename M::template Ptr<T>;
  template <class T> using SamePtr = typename M::template SamePtr<T>;
  template <class T> using Local = typename M::template Local<T>;
  using Frame = typename M::Frame;
  using Token = typename M::Token;

  TracedModel(M &Inner, Tracer &Tr) : Inner(Inner), Tr(Tr) {}

  auto makeRegion() {
    std::uint64_t T0 = nowNs();
    auto R = Inner.makeRegion();
    Tr.span(Layer::NewRegion, T0, nowNs());
    return R;
  }
  bool dropRegion(Token &Handle) {
    std::uint64_t T0 = nowNs();
    bool Ok = Inner.dropRegion(Handle);
    Tr.span(Layer::Delete, T0, nowNs());
    return Ok;
  }

  template <class T, class... Args> T *create(Token &Scope, Args &&...A) {
    std::uint64_t T0 = nowNs();
    T *P = Inner.template create<T>(Scope, std::forward<Args>(A)...);
    Tr.alloc(T0, nowNs(), sizeof(T));
    return P;
  }
  template <class T> T *createArray(Token &Scope, std::size_t N) {
    std::uint64_t T0 = nowNs();
    T *P = Inner.template createArray<T>(Scope, N);
    Tr.alloc(T0, nowNs(), N * sizeof(T));
    return P;
  }
  char *strdup(Token &Scope, const char *S) {
    std::uint64_t T0 = nowNs();
    char *P = Inner.strdup(Scope, S);
    std::uint64_t T1 = nowNs();
    Tr.alloc(T0, T1, std::strlen(P) + 1);
    return P;
  }
  void *allocBytes(Token &Scope, std::size_t N) {
    std::uint64_t T0 = nowNs();
    void *P = Inner.allocBytes(Scope, N);
    Tr.alloc(T0, nowNs(), N);
    return P;
  }
  void *allocBlob(Token &Scope, std::size_t N) {
    std::uint64_t T0 = nowNs();
    void *P = Inner.allocBlob(Scope, N);
    Tr.alloc(T0, nowNs(), N + sizeof(std::size_t));
    return P;
  }

  template <class T> void dispose(T *P) { Inner.dispose(P); }
  template <class T> void disposeArray(T *P, std::size_t N) {
    Inner.disposeArray(P, N);
  }
  template <class T> void assignSame(Ptr<T> &Slot, T *New, Token &Scope) {
    Inner.assignSame(Slot, New, Scope);
  }
  void touch(const void *P, std::size_t N, bool IsWrite = false) {
    Inner.touch(P, N, IsWrite);
  }

private:
  M &Inner;
  Tracer &Tr;
};

} // namespace regbench

#endif // REGBENCH_TRACED_MODEL_H
