#include "src/cache/serial.h"

#include <bit>
#include <cstring>

namespace refscan {

namespace {

// Byte order of every serialized integer and hashed word: little-endian
// whatever the host (a byte swap is its own inverse, so this converts both
// ways).
template <typename T>
T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 4) {
      return __builtin_bswap32(v);
    } else {
      return __builtin_bswap64(v);
    }
  }
  return v;
}

// Unaligned loads and appends through memcpy, which compiles to one mov.
template <typename T>
T LoadLe(const char* p) {
  T v = 0;
  std::memcpy(&v, p, sizeof(v));
  return LittleEndian(v);
}

template <typename T>
void AppendLe(std::string& out, T v) {
  v = LittleEndian(v);
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(v));
}

// XXH64's primes: odd, so multiplying by one is invertible, with their bits
// spread over the whole word.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;

// Seeds of the two key halves (hex digits of pi).
constexpr uint64_t kSeedHi = 0x243f6a8885a308d3ull;
constexpr uint64_t kSeedLo = 0x13198a2e03707344ull;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

// One multiply-rotate round. For a fixed word each step — add, rotate,
// multiply by an odd constant — is a bijection of the accumulator, so no
// input word can zero it (or merge two histories into one) whatever it held
// before. Rounds that multiply by the input itself have that weakness.
uint64_t Round(uint64_t acc, uint64_t word) { return Rotl(acc + word * kPrime2, 31) * kPrime1; }

}  // namespace

uint64_t HashBytes(std::string_view data, uint64_t seed) {
  const char* p = data.data();
  size_t n = data.size();
  // Four independent accumulators over 32-byte stripes, so the multiplies of
  // one stripe overlap in the pipeline.
  uint64_t acc[4] = {seed + kPrime1 + kPrime2, seed + kPrime2, seed, seed - kPrime1};
  for (; n >= 32; n -= 32, p += 32) {
    for (int i = 0; i < 4; ++i) {
      acc[i] = Round(acc[i], LoadLe<uint64_t>(p + 8 * i));
    }
  }
  uint64_t h = Rotl(acc[0], 1) + Rotl(acc[1], 7) + Rotl(acc[2], 12) + Rotl(acc[3], 18);
  for (const uint64_t a : acc) {
    h = (h ^ Round(0, a)) * kPrime1 + kPrime4;
  }
  for (; n >= 8; n -= 8, p += 8) {
    h = Round(h, LoadLe<uint64_t>(p));
  }
  // The last 0-7 bytes as one zero-padded word. The length round after it
  // tells the padding apart from real trailing zero bytes.
  uint64_t tail = 0;
  for (size_t i = 0; i < n; ++i) {
    tail |= uint64_t{static_cast<uint8_t>(p[i])} << (8 * i);
  }
  h = Round(h, tail);
  h = Round(h, static_cast<uint64_t>(data.size()));
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ (h >> 32);
}

Hash128 HashBytesDual(std::string_view data) {
  return {HashBytes(data, kSeedHi), HashBytes(data, kSeedLo)};
}

uint64_t HashMix(uint64_t hash, uint64_t value) {
  uint64_t z = hash + value + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void ByteWriter::U32(uint32_t v) { AppendLe(out_, v); }

void ByteWriter::U64(uint64_t v) { AppendLe(out_, v); }

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

bool ByteReader::Take(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    Fail();
    return false;
  }
  return true;
}

uint8_t ByteReader::U8() {
  if (!Take(1)) {
    return 0;
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t ByteReader::U32() {
  if (!Take(4)) {
    return 0;
  }
  const uint32_t v = LoadLe<uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

uint64_t ByteReader::U64() {
  if (!Take(8)) {
    return 0;
  }
  const uint64_t v = LoadLe<uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::string_view ByteReader::StrView() {
  const uint32_t size = U32();
  if (!Take(size)) {
    return {};
  }
  const std::string_view out = data_.substr(pos_, size);
  pos_ += size;
  return out;
}

uint32_t ByteReader::Count() {
  const uint32_t count = U32();
  if (count > data_.size() - pos_) {
    Fail();
    return 0;
  }
  return count;
}

void ByteReader::Fail() {
  ok_ = false;
  pos_ = data_.size();
}

}  // namespace refscan
