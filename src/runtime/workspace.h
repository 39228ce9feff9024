// Per-thread scratch arenas for the hot numeric kernels.
//
// A Workspace is a bump allocator whose capacity persists for the lifetime
// of its thread: the blocked GEMM pack panels and the Conv2d lowered panels /
// col2im scratch buffers are carved out of it on every call, but the
// backing storage is only ever allocated while the arena is still growing
// toward its steady-state high-water mark. After warm-up a training loop
// performs zero allocations inside the kernel hot paths.
//
// Usage is strictly scoped:
//
//   auto& ws = runtime::Workspace::tls();
//   runtime::Workspace::Scope scope(ws);
//   real* panel = ws.alloc(kc * nr);   // valid until `scope` is destroyed
//
// Scopes nest (a Conv2d scope encloses the GEMM scopes of the kernels it
// calls); destroying a scope rewinds the arena to where it stood at
// construction. Each thread — pool workers included, which live as long as
// the pool — owns exactly one arena via tls(), so no synchronization is
// needed and buffers persist across parallel_for chunks executed on the
// same worker.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace oasis::runtime {

class Workspace {
 public:
  /// Rewinds the arena to the construction-time mark on destruction.
  class Scope {
   public:
    explicit Scope(Workspace& ws);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t block_;
    std::size_t used_;
  };

  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// This thread's arena. Pool workers keep theirs alive across calls, so
  /// capacity reached once is never re-allocated.
  static Workspace& tls();

  /// `count` doubles, 64-byte aligned, uninitialized. Valid until the
  /// innermost live Scope is destroyed. Must be called inside a Scope.
  real* alloc(index_t count);

  /// Total capacity across blocks, in doubles (diagnostics/tests).
  [[nodiscard]] index_t capacity() const;
  /// Number of backing blocks (1 once the arena has settled).
  [[nodiscard]] index_t block_count() const {
    return static_cast<index_t>(blocks_.size());
  }

 private:
  struct Block {
    real* data = nullptr;
    std::size_t cap = 0;   // doubles
    std::size_t used = 0;  // doubles
  };

  void rewind(std::size_t block, std::size_t used);

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;     // index of the block alloc() bumps
  int depth_ = 0;           // live Scope nesting depth
  std::size_t reserve_ = 0; // capacity to restore after a coalesce
};

}  // namespace oasis::runtime
