// Per-scenario bump allocator. One Arena is owned by each simulation
// instance and backs its channel/queue/runtime vectors, so a sweep's worker
// threads allocate from thread-private chunks instead of contending on the
// global allocator — the layout changes nothing about what is computed, only
// where the bytes live.
//
// The arena is monotonic: allocate() bumps a pointer inside the current
// chunk and starts a new, geometrically larger chunk when it runs out;
// deallocation is a no-op (all memory is reclaimed at once when the Arena is
// destroyed, i.e. when the simulation ends). That is exactly the lifetime of
// a scenario's working set, and it is what makes the allocator safe to use
// behind std::vector: a vector that grows abandons its old block inside the
// arena, which wastes at most the geometric-growth constant.
//
// Not thread-safe by design — each simulation runs on one worker thread and
// owns its arena outright. Not movable: containers hold raw Arena pointers
// through their ArenaAllocator, so the arena must stay put for its lifetime
// (declare it before every arena-backed member so it is destroyed last).
#ifndef ECONCAST_SIM_ARENA_H
#define ECONCAST_SIM_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace econcast::sim {

class Arena {
 public:
  static constexpr std::size_t kDefaultFirstChunk = std::size_t{1} << 16;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultFirstChunk) noexcept
      : next_chunk_bytes_(first_chunk_bytes ? first_chunk_bytes
                                            : kDefaultFirstChunk) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = delete;
  Arena& operator=(Arena&&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two).
  /// Never returns nullptr; throws std::bad_alloc when the chunk allocation
  /// itself fails.
  void* allocate(std::size_t bytes, std::size_t alignment);

  /// Cumulative accounting (chunk growth and bytes handed out).
  struct Stats {
    std::uint64_t bytes_allocated = 0;  // sum of all allocate() requests
    std::uint64_t bytes_reserved = 0;   // sum of chunk sizes
    std::uint64_t chunks = 0;           // chunk count
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
  };

  std::vector<Chunk> chunks_;
  std::size_t used_ = 0;  // bytes consumed in the current (last) chunk
  std::size_t next_chunk_bytes_;
  Stats stats_;
};

/// std::allocator-compatible handle onto an Arena. Default-constructed (or
/// null-arena) allocators fall back to the global heap, so arena-backed
/// container types stay usable in contexts that have no arena (tests,
/// copies that escape a simulation). Allocators propagate on move/swap, so
/// a container always deallocates with the allocator that allocated it.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    if (n > ~std::size_t{0} / sizeof(T)) throw std::bad_alloc{};
    if (arena_ != nullptr)
      return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) ::operator delete(p);
    // Arena memory is reclaimed en bloc when the Arena dies.
  }

  Arena* arena() const noexcept { return arena_; }

 private:
  Arena* arena_ = nullptr;
};

template <typename T, typename U>
bool operator==(const ArenaAllocator<T>& a, const ArenaAllocator<U>& b) noexcept {
  return a.arena() == b.arena();
}

template <typename T, typename U>
bool operator!=(const ArenaAllocator<T>& a, const ArenaAllocator<U>& b) noexcept {
  return a.arena() != b.arena();
}

/// The container type the substrate's per-node arrays use.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_ARENA_H
