// Flat binary serialization: the transfer layer every cache artifact and
// process wire is written and read through.
//
// A deliberately tiny little-endian format: fixed-width integers,
// length-prefixed strings, count-prefixed collections, no alignment, no
// back-references. The reader is written for hostile input — every length is
// bounds-checked against the remaining payload, and any overrun flips a
// sticky ok() flag instead of throwing or reading out of bounds, so a
// truncated or bit-flipped cache file degrades to "cache miss", never to UB
// (the corruption-tolerance contract of src/cache).
//
// Each serialized type has one function template that lists its fields
// once, in wire order:
//
//   template <typename IO, Value<Widget> W>
//   void Transfer(IO& io, W& widget) { Transfer(io, widget.name, widget.refs); }
//
// Run with a ByteWriter it writes the fields (W is then usually const);
// run with a ByteReader it reads them back into the same members, so a
// writer and its reader cannot drift apart. A field's C++ type picks its
// encoding: an integer or bool its own width (1, 4 or 8 bytes), an enum its
// underlying integer, a double its bit pattern, a string a u32 length and
// the bytes, a vector or set a u32 count (Count()-guarded on read) and the
// elements, an optional a presence byte and the value. A Transfer function
// branches on IO::kReading only where a read must rebuild through an API
// that keeps an invariant (Intern, arena allocation, KnowledgeBase::Add*,
// SourceTree::Add) — never for the field list.
//
// Two kinds of format run on it:
//   persisted  the cache objects with their header (src/cache/cache.cc), the
//              file and KB-snapshot keys, and the options and KB
//              fingerprints. Their bytes must not move without a cache
//              format version bump; tests/serial_test.cc pins their digests.
//   wire       the scan request and reply (src/checkers/scan_stages.h), the
//              shard-worker frames (src/checkers/sharded.cc) and the
//              cache-server frames (src/cache/store.cc). They pass between
//              processes of one binary, so they may change freely.

#ifndef REFSCAN_CACHE_SERIAL_H_
#define REFSCAN_CACHE_SERIAL_H_

#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <ranges>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace refscan {

// Word-at-a-time 64-bit hash of `data`, XXH64-style but written for this
// repo: 8-byte little-endian loads feed four multiply-rotate accumulators,
// then the last words, the tail bytes and the length fold in before a final
// avalanche. Seedable so independent streams stay independent. It computes
// the cache's file keys, payload checksums and KB/options fingerprints, so
// changing it means bumping the cache format version.
uint64_t HashBytes(std::string_view data, uint64_t seed = 0);

// The two halves of a 128-bit cache key: HashBytes under two independent
// seeds.
struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;
};
Hash128 HashBytesDual(std::string_view data);

// Mixes one 64-bit value into a running hash (splitmix64 finalizer).
uint64_t HashMix(uint64_t hash, uint64_t value);

class ByteWriter {
 public:
  static constexpr bool kReading = false;

  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Str(std::string_view s);

  // Any integer at its own width; bool is one 0/1 byte.
  template <std::integral T>
  void Int(T v) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
    if constexpr (sizeof(T) == 1) {
      U8(static_cast<uint8_t>(v));
    } else if constexpr (sizeof(T) == 4) {
      U32(static_cast<uint32_t>(v));
    } else {
      U64(static_cast<uint64_t>(v));
    }
  }

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  static constexpr bool kReading = true;

  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  // A length-prefixed string. Read into a string_view it views the
  // payload, so it is valid only as long as the payload.
  void Str(std::string& out) { out = StrView(); }
  void Str(std::string_view& out) { out = StrView(); }

  // The Int counterpart of ByteWriter::Int.
  template <std::integral T>
  void Int(T& v) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
    if constexpr (std::same_as<T, bool>) {
      v = U8() != 0;
    } else if constexpr (sizeof(T) == 1) {
      v = static_cast<T>(U8());
    } else if constexpr (sizeof(T) == 4) {
      v = static_cast<T>(U32());
    } else {
      v = static_cast<T>(U64());
    }
  }

  // Reads an element count and rejects counts that could not possibly fit
  // in the remaining payload (>= 1 byte per element), capping the damage a
  // corrupt length field can do before the per-element reads fail.
  uint32_t Count();

  // Marks the payload malformed, as an overrun would: a pinned value did
  // not match.
  void Fail();

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Take(size_t n);  // false (and sticky-fails) if fewer than n bytes remain
  std::string_view StrView();

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- The transfer layer -------------------------------------------------

// `V` is `T` or `const T`: the value a Transfer function writes from or
// reads into.
template <typename V, typename T>
concept Value = std::same_as<std::remove_const_t<V>, T>;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsSet = false;
template <typename T>
inline constexpr bool kIsSet<std::set<T>> = true;
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

// Several values in order: the field list of a format.
template <typename IO, typename... V>
  requires(sizeof...(V) > 1)
void Transfer(IO& io, V&&... values) {
  (Transfer(io, values), ...);
}

// The persisted formats store size_t fields (counts, caps) as eight bytes.
static_assert(sizeof(size_t) == 8);

template <typename IO, typename V>
  requires std::integral<std::remove_const_t<V>>
void Transfer(IO& io, V& v) {
  io.Int(v);
}

template <typename IO, typename E>
  requires std::is_enum_v<std::remove_const_t<E>>
void Transfer(IO& io, E& e) {
  auto raw = static_cast<std::underlying_type_t<std::remove_const_t<E>>>(e);
  Transfer(io, raw);
  if constexpr (IO::kReading) {
    e = static_cast<E>(raw);
  }
}

// The exact bit pattern: the value must survive the trip, not a rounding.
template <typename IO, Value<double> D>
void Transfer(IO& io, D& d) {
  auto bits = std::bit_cast<uint64_t>(d);
  Transfer(io, bits);
  if constexpr (IO::kReading) {
    d = std::bit_cast<double>(bits);
  }
}

// A read of a string_view views the payload.
template <typename IO, typename S>
  requires Value<S, std::string> || Value<S, std::string_view>
void Transfer(IO& io, S& s) {
  io.Str(s);
}

template <typename IO, typename V>
  requires kIsVector<std::remove_const_t<V>>
void Transfer(IO& io, V& items) {
  if constexpr (IO::kReading) {
    const uint32_t count = io.Count();
    items.clear();
    items.reserve(count);
    for (uint32_t i = 0; i < count && io.ok(); ++i) {
      Transfer(io, items.emplace_back());
    }
  } else {
    io.U32(static_cast<uint32_t>(items.size()));
    for (const auto& item : items) {
      Transfer(io, item);
    }
  }
}

// A collection whose owner must rebuild it element by element through
// `add` (an API that keeps the owner's invariants) instead of assigning: a
// u32 count, then each element of `items`, which a read decodes into a
// fresh `Item`.
template <typename Item, typename IO, typename Items, typename Add>
void TransferEach(IO& io, const Items& items, const Add& add) {
  if constexpr (IO::kReading) {
    const uint32_t count = io.Count();
    for (uint32_t i = 0; i < count && io.ok(); ++i) {
      Item item{};
      Transfer(io, item);
      if (io.ok()) {
        add(std::move(item));
      }
    }
  } else {
    io.U32(static_cast<uint32_t>(std::ranges::size(items)));
    for (const auto& item : items) {
      Transfer(io, item);
    }
  }
}

template <typename IO, typename S>
  requires kIsSet<std::remove_const_t<S>>
void Transfer(IO& io, S& set) {
  if constexpr (IO::kReading) {
    set.clear();
  }
  TransferEach<typename std::remove_const_t<S>::value_type>(
      io, set, [&](auto&& item) { set.insert(std::move(item)); });
}

// A presence byte, then the value when there is one.
template <typename IO, typename O>
  requires kIsOptional<std::remove_const_t<O>>
void Transfer(IO& io, O& value) {
  bool present = value.has_value();
  Transfer(io, present);
  if constexpr (IO::kReading) {
    if (present) {
      value.emplace();
    } else {
      value.reset();
    }
  }
  if (present) {
    Transfer(io, *value);
  }
}

template <typename IO, typename P>
  requires kIsPair<std::remove_const_t<P>>
void Transfer(IO& io, P& pair) {
  Transfer(io, pair.first, pair.second);
}

// A value the format pins, such as a magic number, a version or a table
// size: written as given, and a read that finds another value fails.
template <typename T>
struct Pinned {
  T value;
};

template <typename IO, typename T>
void Transfer(IO& io, Pinned<T> pinned) {
  T value = pinned.value;
  Transfer(io, value);
  if constexpr (IO::kReading) {
    if (value != pinned.value) {
      io.Fail();
    }
  }
}

// `values` in order, as one payload.
template <typename... V>
std::string Encode(const V&... values) {
  ByteWriter w;
  Transfer(w, values...);
  return w.TakeBytes();
}

// Reads a whole payload into `values`: false unless every read succeeded
// and every byte was consumed.
template <typename... V>
bool Decode(std::string_view bytes, V&... values) {
  ByteReader r(bytes);
  Transfer(r, values...);
  return r.ok() && r.AtEnd();
}

}  // namespace refscan

#endif  // REFSCAN_CACHE_SERIAL_H_
