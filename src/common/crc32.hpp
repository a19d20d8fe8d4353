// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected, slice-by-8).
//
// Guards every durable artifact the checkpoint/resume subsystem trusts after
// a crash: Special Rows Area row payloads and the pipeline checkpoint
// manifest. A CRC mismatch on load means the bytes on disk are not the bytes
// that were written — the loader refuses them with a diagnostic instead of
// resuming from corrupt state.
//
// Slice-by-8 folds eight input bytes per step through eight 256-entry
// tables: table k maps a byte to its CRC contribution k bytes further back,
// so one step is eight independent lookups instead of a chain of eight. The
// values are those of the bytewise table loop (which still runs the tail),
// so stored CRCs do not change.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cudalign::common {

namespace detail {

[[nodiscard]] constexpr std::array<std::array<std::uint32_t, 256>, 8> crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::size_t t = 1; t < tables.size(); ++t) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = tables[t - 1][n];
      tables[t][n] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables = crc32_tables();

}  // namespace detail

/// Incrementally extends `crc` (pass the result of a previous call, or 0 for
/// the first chunk) over `size` bytes at `data`.
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                                std::size_t size) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    // Little-endian assembly by shifts: no alignment or byte-order assumption.
    const std::uint32_t lo = (std::uint32_t{bytes[i]} | std::uint32_t{bytes[i + 1]} << 8 |
                              std::uint32_t{bytes[i + 2]} << 16 |
                              std::uint32_t{bytes[i + 3]} << 24) ^
                             c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][bytes[i + 4]] ^ t[2][bytes[i + 5]] ^ t[1][bytes[i + 6]] ^ t[0][bytes[i + 7]];
  }
  for (; i < size; ++i) {
    c = t[0][(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte buffer.
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  return crc32_update(0, data, size);
}

[[nodiscard]] inline std::uint32_t crc32(std::string_view text) noexcept {
  return crc32(text.data(), text.size());
}

}  // namespace cudalign::common
