#include "src/support/interner.h"

#include <atomic>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace refscan {

namespace {

// Two-level id -> entry table: 4096 entries per page, pages allocated on
// demand. 16M symbols is far beyond any scan (the whole-kernel corpus has
// ~1M distinct identifiers).
constexpr uint32_t kPageBits = 12;
constexpr uint32_t kPageSize = 1u << kPageBits;
constexpr uint32_t kMaxPages = 4096;

struct Entry {
  const char* text = "";  // NUL-terminated, owned by a shard's text chunks
  uint32_t size = 0;
};

struct Page {
  Entry entries[kPageSize];
};

// The id→entry page table lives at namespace scope (zero-initialised, no
// dynamic initialiser) rather than inside the lazily-constructed Interner:
// Symbol::view()/str() resolve through here tens of millions of times per
// scan, and a function-local static would pay the init-guard acquire on
// every call.
std::atomic<Page*> g_pages[kMaxPages];

struct Shard {
  std::mutex mu;
  std::unordered_map<std::string_view, uint32_t> map;
  std::vector<std::unique_ptr<char[]>> chunks;
  char* ptr = nullptr;
  char* end = nullptr;

  const char* Copy(std::string_view text) {
    const size_t need = text.size() + 1;
    if (static_cast<size_t>(end - ptr) < need) {
      const size_t chunk_size = need > 64 * 1024 ? need : 64 * 1024;
      chunks.push_back(std::make_unique<char[]>(chunk_size));
      ptr = chunks.back().get();
      end = ptr + chunk_size;
    }
    char* out = ptr;
    std::memcpy(out, text.data(), text.size());
    out[text.size()] = '\0';
    ptr += need;
    return out;
  }
};

struct Interner {
  std::mutex page_mu;
  std::atomic<uint32_t> next_id{0};
  Shard shards[16];

  Interner() {
    // Reserve id 0 for "" so Symbol() round-trips to the empty string.
    Shard& shard = shards[0];
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
    Entry& e = SlotFor(id);
    e.text = "";
    e.size = 0;
    shard.map.emplace(std::string_view(""), id);
  }

  Entry& SlotFor(uint32_t id) {
    const uint32_t page_index = id >> kPageBits;
    assert(page_index < kMaxPages && "interner overflow");
    Page* page = g_pages[page_index].load(std::memory_order_acquire);
    if (page == nullptr) {
      std::lock_guard<std::mutex> lock(page_mu);
      page = g_pages[page_index].load(std::memory_order_relaxed);
      if (page == nullptr) {
        page = new Page();
        g_pages[page_index].store(page, std::memory_order_release);
      }
    }
    return page->entries[id & (kPageSize - 1)];
  }
};

Interner& G() {
  static Interner* interner = new Interner();  // intentionally leaked
  return *interner;
}

uint32_t ShardOf(std::string_view text) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(text)) & 15u;
}

// Per-thread direct-mapped cache in front of the shard mutexes. Parsing
// interns the same identifiers over and over (every `np`, `->`, struct
// member, callee name in a unit), so most lookups hit here and never touch
// a lock. Entries reference the interner's immortal text, so a hit can be
// validated with one memcmp; collisions simply overwrite (it is a cache,
// the shard map remains the source of truth).
struct TlEntry {
  const char* text = nullptr;
  uint32_t size = 0;
  uint32_t id = 0;
};

constexpr size_t kTlCacheSlots = 8192;  // power of two; ~128KB per thread

thread_local TlEntry tl_cache[kTlCacheSlots];

}  // namespace

namespace internal {

const char* SymbolTextPtr(uint32_t id) {
  Page* page = g_pages[id >> kPageBits].load(std::memory_order_acquire);
  return page == nullptr ? "" : page->entries[id & (kPageSize - 1)].text;
}

size_t SymbolTextSize(uint32_t id) {
  Page* page = g_pages[id >> kPageBits].load(std::memory_order_acquire);
  return page == nullptr ? 0 : page->entries[id & (kPageSize - 1)].size;
}

}  // namespace internal

Symbol Intern(std::string_view text) {
  if (text.empty()) {
    return Symbol();
  }
  const size_t hash = std::hash<std::string_view>{}(text);
  TlEntry& cached = tl_cache[hash & (kTlCacheSlots - 1)];
  if (cached.size == text.size() && cached.text != nullptr &&
      std::memcmp(cached.text, text.data(), text.size()) == 0) {
    return Symbol(cached.id);
  }
  Interner& g = G();
  Shard& shard = g.shards[static_cast<uint32_t>(hash) & 15u];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (const auto it = shard.map.find(text); it != shard.map.end()) {
    cached = TlEntry{it->first.data(), static_cast<uint32_t>(it->first.size()), it->second};
    return Symbol(it->second);
  }
  const char* copy = shard.Copy(text);
  const uint32_t id = g.next_id.fetch_add(1, std::memory_order_relaxed);
  Entry& e = g.SlotFor(id);
  // Publish the entry before the id can be observed through the map. Cross-
  // thread id propagation (events, merge queues) carries its own
  // happens-before; the atomic page pointer covers first-touch reads.
  e.text = copy;
  e.size = static_cast<uint32_t>(text.size());
  shard.map.emplace(std::string_view(copy, text.size()), id);
  cached = TlEntry{copy, static_cast<uint32_t>(text.size()), id};
  return Symbol(id);
}

Symbol FindSymbol(std::string_view text) {
  if (text.empty()) {
    return Symbol();
  }
  Interner& g = G();
  Shard& shard = g.shards[ShardOf(text)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(text);
  return it == shard.map.end() ? Symbol() : Symbol(it->second);
}

size_t InternedSymbolCount() {
  return G().next_id.load(std::memory_order_relaxed);
}

}  // namespace refscan
