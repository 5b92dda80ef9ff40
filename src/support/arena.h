// Chunked bump allocator for per-unit AST storage (DESIGN.md §5.11).
//
// One Arena owns every node of one translation unit: allocation is a pointer
// bump inside a geometrically-growing chain of blocks, addresses are stable
// for the arena's lifetime (blocks never move or reallocate), and the whole
// unit is freed wholesale when the arena is destroyed — no per-node
// `delete`, no destructor walks. Objects placed in an arena must therefore
// be trivially destructible; `New<T>` enforces that at compile time.
//
// Arenas are single-threaded by design: each parse worker owns the arena of
// the unit it is building. Thread-safe sharing of *immutable* arena contents
// after the parse barrier is fine (readers never mutate or allocate).

#ifndef REFSCAN_SUPPORT_ARENA_H_
#define REFSCAN_SUPPORT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace refscan {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  // Raw aligned allocation. Never returns nullptr (throws std::bad_alloc on
  // OOM like operator new).
  void* Allocate(size_t size, size_t align) {
    char* aligned = AlignUp(ptr_, align);
    if (aligned + size > end_) {
      return AllocateSlow(size, align);
    }
    ptr_ = aligned + size;
    bytes_used_ += size;
    return aligned;
  }

  // Constructs a T in the arena. T must be trivially destructible — the
  // arena frees memory without running destructors.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must be trivially destructible");
    return new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  // Uninitialised array of trivially-destructible Ts.
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must be trivially destructible");
    return static_cast<T*>(Allocate(sizeof(T) * count, alignof(T)));
  }

  // Copies `text` into the arena with a trailing NUL (not included in the
  // returned view), so .data() doubles as a C string.
  std::string_view CopyString(std::string_view text) {
    char* out = static_cast<char*>(Allocate(text.size() + 1, 1));
    std::memcpy(out, text.data(), text.size());
    out[text.size()] = '\0';
    return {out, text.size()};
  }

  // Rewinds to empty, keeping the largest block for reuse (the steady-state
  // rescan of a same-sized unit then allocates zero new blocks).
  void Reset();

  // Accounting (allocation-regression tests and --stats plumbing).
  size_t bytes_used() const { return bytes_used_; }
  size_t bytes_reserved() const { return bytes_reserved_; }
  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  static char* AlignUp(char* p, size_t align) {
    const auto v = reinterpret_cast<uintptr_t>(p);
    return reinterpret_cast<char*>((v + align - 1) & ~(align - 1));
  }

  void* AllocateSlow(size_t size, size_t align);

  std::vector<Block> blocks_;
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  size_t next_block_size_ = 8 * 1024;
};

// Arena-backed growable array of trivially-destructible Ts: the AST's
// replacement for std::vector children (Expr::args, Stmt::stmts). Grows
// geometrically by copying into a fresh arena span; the abandoned prefix
// stays in the arena until the unit dies (bounded ~1x waste, zero frees).
// Iteration order and indexing match std::vector.
template <typename T>
class ArenaVec {
 public:
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(std::is_trivially_copyable_v<T>);

  ArenaVec() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void push_back(const T& value, Arena& arena) {
    if (size_ == capacity_) {
      Grow(arena);
    }
    data_[size_++] = value;
  }

 private:
  void Grow(Arena& arena) {
    const uint32_t cap = capacity_ == 0 ? 4 : capacity_ * 2;
    T* fresh = arena.AllocateArray<T>(cap);
    if (size_ > 0) {
      std::memcpy(fresh, data_, sizeof(T) * size_);
    }
    data_ = fresh;
    capacity_ = cap;
  }

  T* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
};

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_ARENA_H_
