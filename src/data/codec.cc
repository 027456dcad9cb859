#include "data/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/string_util.h"
#include "gbdt/tree.h"

namespace lightmirm::data {
namespace {

// Bits needed to represent `value` (0 for 0).
int BitWidth(uint64_t value) {
  int bits = 0;
  while (value != 0) {
    ++bits;
    value >>= 1;
  }
  return bits;
}

// Little-endian bit packer: values are appended LSB-first at a fixed
// width (any width in [1, 64] — wide values go out in <= 32-bit chunks so
// the 64-bit staging buffer never overflows).
struct BitWriter {
  explicit BitWriter(std::vector<uint8_t>* out) : out(out) {}
  void Write(uint64_t value, int width) {
    while (width > 0) {
      const int take = std::min(width, 32);
      const uint64_t mask =
          take == 64 ? ~uint64_t{0} : (uint64_t{1} << take) - 1;
      buf |= (value & mask) << bits;
      bits += take;
      while (bits >= 8) {
        out->push_back(static_cast<uint8_t>(buf));
        buf >>= 8;
        bits -= 8;
      }
      value >>= take;
      width -= take;
    }
  }
  void Flush() {
    if (bits > 0) {
      out->push_back(static_cast<uint8_t>(buf));
      buf = 0;
      bits = 0;
    }
  }
  std::vector<uint8_t>* out;
  uint64_t buf = 0;
  int bits = 0;
};

struct BitReader {
  BitReader(const uint8_t* bytes, size_t size) : bytes(bytes), size(size) {}
  Status Read(int width, uint64_t* value) {
    uint64_t v = 0;
    int got = 0;
    while (got < width) {
      if (bit_pos >= size * 8) {
        return Status::IoError("bitpacked payload truncated");
      }
      const size_t byte = bit_pos >> 3;
      const int offset = static_cast<int>(bit_pos & 7);
      const int take = std::min(8 - offset, width - got);
      const uint64_t chunk =
          (bytes[byte] >> offset) & ((uint64_t{1} << take) - 1);
      v |= chunk << got;
      got += take;
      bit_pos += take;
    }
    *value = v;
    return Status::OK();
  }
  const uint8_t* bytes;
  size_t size;
  size_t bit_pos = 0;
};

// One byte stream of a split double/float column: whichever of raw, RLE
// (value, run-length pairs) or dictionary+bitpack is smallest.
// Layout: u8 mode | varint payload_bytes | payload.
enum : uint8_t { kStreamRaw = 0, kStreamRle = 1, kStreamDict = 2 };

void EncodeByteStream(const uint8_t* bytes, size_t n,
                      std::vector<uint8_t>* out) {
  // RLE candidate.
  std::vector<uint8_t> rle;
  for (size_t i = 0; i < n;) {
    size_t run = 1;
    while (i + run < n && bytes[i + run] == bytes[i]) ++run;
    rle.push_back(bytes[i]);
    AppendVarint(run, &rle);
    i += run;
    if (rle.size() >= n) break;  // already worse than raw; stop early
  }
  // Dictionary candidate (worth it below ~64 distinct byte values).
  std::vector<uint8_t> dict;
  bool have_dict = false;
  {
    bool present[256] = {false};
    uint8_t index_of[256] = {0};
    std::vector<uint8_t> symbols;
    for (size_t i = 0; i < n && symbols.size() <= 64; ++i) {
      if (!present[bytes[i]]) {
        present[bytes[i]] = true;
        symbols.push_back(bytes[i]);
      }
    }
    if (symbols.size() <= 64 && n > 0) {
      std::sort(symbols.begin(), symbols.end());
      for (size_t s = 0; s < symbols.size(); ++s) {
        index_of[symbols[s]] = static_cast<uint8_t>(s);
      }
      const int width = std::max(1, BitWidth(symbols.size() - 1));
      dict.push_back(static_cast<uint8_t>(symbols.size()));
      dict.insert(dict.end(), symbols.begin(), symbols.end());
      BitWriter writer(&dict);
      for (size_t i = 0; i < n; ++i) {
        writer.Write(index_of[bytes[i]], width);
      }
      writer.Flush();
      have_dict = true;
    }
  }

  uint8_t mode = kStreamRaw;
  size_t best = n;
  if (rle.size() < best) {
    mode = kStreamRle;
    best = rle.size();
  }
  if (have_dict && dict.size() < best) {
    mode = kStreamDict;
    best = dict.size();
  }
  out->push_back(mode);
  AppendVarint(best, out);
  switch (mode) {
    case kStreamRaw:
      out->insert(out->end(), bytes, bytes + n);
      break;
    case kStreamRle:
      out->insert(out->end(), rle.begin(), rle.end());
      break;
    case kStreamDict:
      out->insert(out->end(), dict.begin(), dict.end());
      break;
  }
}

Status DecodeByteStream(const uint8_t* bytes, size_t size, size_t* pos,
                        size_t n, uint8_t* out) {
  // The encoder writes the mode + payload-size header even for an empty
  // stream, so the header must be present regardless of n.
  if (*pos >= size) {
    return Status::IoError("byte stream header truncated");
  }
  const uint8_t mode = bytes[(*pos)++];
  uint64_t payload = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarint(bytes, size, pos, &payload));
  // Length checks subtract from the known-good side: an untrusted count
  // added to a position can wrap past any limit.
  if (payload > size - *pos) {
    return Status::IoError("byte stream payload truncated");
  }
  const uint8_t* p = bytes + *pos;
  *pos += payload;
  switch (mode) {
    case kStreamRaw: {
      if (payload != n) {
        return Status::IoError("raw byte stream has wrong length");
      }
      if (n != 0) std::memcpy(out, p, n);  // out may be null when n == 0
      return Status::OK();
    }
    case kStreamRle: {
      size_t at = 0;
      size_t produced = 0;
      while (produced < n) {
        if (at >= payload) {
          return Status::IoError("RLE byte stream ran out of runs");
        }
        const uint8_t value = p[at++];
        uint64_t run = 0;
        LIGHTMIRM_RETURN_NOT_OK(ReadVarint(p, payload, &at, &run));
        if (run == 0 || run > n - produced) {
          return Status::IoError("RLE byte stream has malformed run");
        }
        std::memset(out + produced, value, run);
        produced += run;
      }
      return Status::OK();
    }
    case kStreamDict: {
      if (payload == 0) {
        return n == 0 ? Status::OK()
                      : Status::IoError("dictionary byte stream empty");
      }
      const size_t dict_size = p[0];
      if (dict_size == 0 || payload < 1 + dict_size) {
        return Status::IoError("dictionary byte stream malformed");
      }
      const uint8_t* symbols = p + 1;
      const int width = std::max(1, BitWidth(dict_size - 1));
      BitReader reader(p + 1 + dict_size, payload - 1 - dict_size);
      for (size_t i = 0; i < n; ++i) {
        uint64_t index = 0;
        LIGHTMIRM_RETURN_NOT_OK(reader.Read(width, &index));
        if (index >= dict_size) {
          return Status::IoError("dictionary byte stream index out of range");
        }
        out[i] = symbols[index];
      }
      return Status::OK();
    }
    default:
      return Status::IoError(
          StrFormat("unknown byte stream mode %d", mode));
  }
}

// Shared byte-split driver for 8-byte (double) and 4-byte (float) cells.
template <size_t kBytes>
void EncodeSplitStreams(const uint8_t* cells, size_t n,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> stream(n);
  for (size_t s = 0; s < kBytes; ++s) {
    for (size_t i = 0; i < n; ++i) stream[i] = cells[i * kBytes + s];
    EncodeByteStream(stream.data(), n, out);
  }
}

template <size_t kBytes>
Status DecodeSplitStreams(const uint8_t* bytes, size_t size, size_t n,
                          uint8_t* cells) {
  std::vector<uint8_t> stream(n);
  size_t pos = 0;
  for (size_t s = 0; s < kBytes; ++s) {
    LIGHTMIRM_RETURN_NOT_OK(
        DecodeByteStream(bytes, size, &pos, n, stream.data()));
    for (size_t i = 0; i < n; ++i) cells[i * kBytes + s] = stream[i];
  }
  if (pos != size) {
    return Status::IoError("byte-split payload has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

const char* ColumnCodecName(ColumnCodec codec) {
  switch (codec) {
    case ColumnCodec::kDeltaBitpack:
      return "delta_bitpack";
    case ColumnCodec::kRleDictionary:
      return "rle_dictionary";
    case ColumnCodec::kByteStreamSplit:
      return "byte_stream_split";
    case ColumnCodec::kQuantizedFloat:
      return "quantized_float";
    case ColumnCodec::kDoubleDictionary:
      return "double_dictionary";
    case ColumnCodec::kServingGrid:
      return "serving_grid";
  }
  return "unknown";
}

void AppendVarint(uint64_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

Status ReadVarint(const uint8_t* bytes, size_t size, size_t* pos,
                  uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*pos >= size || shift > 63) {
      return Status::IoError("varint truncated or overlong");
    }
    const uint8_t byte = bytes[(*pos)++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *value = v;
  return Status::OK();
}

uint64_t ZigzagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t ZigzagDecode(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void EncodeDeltaBitpack(const int64_t* values, size_t n,
                        std::vector<uint8_t>* out) {
  if (n == 0) return;
  AppendVarint(ZigzagEncode(values[0]), out);
  uint64_t max_delta = 0;
  for (size_t i = 1; i < n; ++i) {
    // Deltas in the unsigned domain so int64 overflow is well-defined.
    const uint64_t delta = ZigzagEncode(static_cast<int64_t>(
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(values[i - 1])));
    max_delta = std::max(max_delta, delta);
  }
  const int width = BitWidth(max_delta);
  out->push_back(static_cast<uint8_t>(width));
  if (width == 0) return;  // constant column: first value + width is all
  BitWriter writer(out);
  for (size_t i = 1; i < n; ++i) {
    writer.Write(ZigzagEncode(static_cast<int64_t>(
                     static_cast<uint64_t>(values[i]) -
                     static_cast<uint64_t>(values[i - 1]))),
                 width);
  }
  writer.Flush();
}

Status DecodeDeltaBitpack(const uint8_t* bytes, size_t size, size_t n,
                          int64_t* out) {
  if (n == 0) {
    return size == 0 ? Status::OK()
                     : Status::IoError("empty column has payload bytes");
  }
  size_t pos = 0;
  uint64_t first = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarint(bytes, size, &pos, &first));
  out[0] = ZigzagDecode(first);
  if (pos >= size) {
    return Status::IoError("delta-bitpack width byte missing");
  }
  const int width = bytes[pos++];
  if (width > 64) {
    return Status::IoError("delta-bitpack width out of range");
  }
  if (width == 0) {
    for (size_t i = 1; i < n; ++i) out[i] = out[0];
    return Status::OK();
  }
  BitReader reader(bytes + pos, size - pos);
  for (size_t i = 1; i < n; ++i) {
    uint64_t delta = 0;
    LIGHTMIRM_RETURN_NOT_OK(reader.Read(width, &delta));
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(out[i - 1]) +
                                  static_cast<uint64_t>(ZigzagDecode(delta)));
  }
  return Status::OK();
}

void EncodeRleDictionary(const int64_t* values, size_t n,
                         std::vector<uint8_t>* out) {
  // Dictionary in first-appearance order keeps typical index streams small
  // and makes the encoding deterministic.
  std::vector<int64_t> symbols;
  std::vector<uint32_t> indices(n);
  for (size_t i = 0; i < n; ++i) {
    size_t at = symbols.size();
    for (size_t s = 0; s < symbols.size(); ++s) {
      if (symbols[s] == values[i]) {
        at = s;
        break;
      }
    }
    if (at == symbols.size()) symbols.push_back(values[i]);
    indices[i] = static_cast<uint32_t>(at);
  }
  AppendVarint(symbols.size(), out);
  for (int64_t s : symbols) AppendVarint(ZigzagEncode(s), out);
  if (n == 0 || symbols.empty()) return;

  // Index stream: RLE runs vs bitpack, whichever is smaller.
  std::vector<uint8_t> rle;
  for (size_t i = 0; i < n;) {
    size_t run = 1;
    while (i + run < n && indices[i + run] == indices[i]) ++run;
    AppendVarint(indices[i], &rle);
    AppendVarint(run, &rle);
    i += run;
  }
  const int width = std::max(1, BitWidth(symbols.size() - 1));
  const size_t packed_bytes = (n * static_cast<size_t>(width) + 7) / 8;
  if (rle.size() < packed_bytes) {
    out->push_back(0);  // RLE index stream
    out->insert(out->end(), rle.begin(), rle.end());
  } else {
    out->push_back(1);  // bitpacked index stream
    BitWriter writer(out);
    for (size_t i = 0; i < n; ++i) writer.Write(indices[i], width);
    writer.Flush();
  }
}

Status DecodeRleDictionary(const uint8_t* bytes, size_t size, size_t n,
                           int64_t* out) {
  size_t pos = 0;
  uint64_t dict_size = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarint(bytes, size, &pos, &dict_size));
  if (dict_size > n && !(n == 0 && dict_size == 0)) {
    return Status::IoError("dictionary larger than the column");
  }
  std::vector<int64_t> symbols(dict_size);
  for (uint64_t s = 0; s < dict_size; ++s) {
    uint64_t v = 0;
    LIGHTMIRM_RETURN_NOT_OK(ReadVarint(bytes, size, &pos, &v));
    symbols[s] = ZigzagDecode(v);
  }
  if (n == 0) return Status::OK();
  if (dict_size == 0) {
    return Status::IoError("non-empty column with empty dictionary");
  }
  if (pos >= size) {
    return Status::IoError("dictionary index stream missing");
  }
  const uint8_t index_mode = bytes[pos++];
  if (index_mode == 0) {
    size_t produced = 0;
    while (produced < n) {
      uint64_t index = 0, run = 0;
      LIGHTMIRM_RETURN_NOT_OK(ReadVarint(bytes, size, &pos, &index));
      LIGHTMIRM_RETURN_NOT_OK(ReadVarint(bytes, size, &pos, &run));
      if (index >= dict_size || run == 0 || run > n - produced) {
        return Status::IoError("dictionary RLE run malformed");
      }
      for (uint64_t i = 0; i < run; ++i) out[produced++] = symbols[index];
    }
    return Status::OK();
  }
  if (index_mode != 1) {
    return Status::IoError("unknown dictionary index mode");
  }
  const int width = std::max(1, BitWidth(dict_size - 1));
  BitReader reader(bytes + pos, size - pos);
  for (size_t i = 0; i < n; ++i) {
    uint64_t index = 0;
    LIGHTMIRM_RETURN_NOT_OK(reader.Read(width, &index));
    if (index >= dict_size) {
      return Status::IoError("dictionary index out of range");
    }
    out[i] = symbols[index];
  }
  return Status::OK();
}

void EncodeByteStreamSplit(const double* values, size_t n,
                           std::vector<uint8_t>* out) {
  EncodeSplitStreams<8>(reinterpret_cast<const uint8_t*>(values), n, out);
}

Status DecodeByteStreamSplit(const uint8_t* bytes, size_t size, size_t n,
                             double* out) {
  return DecodeSplitStreams<8>(bytes, size, n,
                               reinterpret_cast<uint8_t*>(out));
}

void EncodeQuantizedFloat(const double* values, size_t n,
                          std::vector<uint8_t>* out) {
  std::vector<float> cells(n);
  for (size_t i = 0; i < n; ++i) {
    cells[i] = gbdt::QuantizeThreshold(values[i]);
  }
  EncodeSplitStreams<4>(reinterpret_cast<const uint8_t*>(cells.data()), n,
                        out);
}

Status DecodeQuantizedFloat(const uint8_t* bytes, size_t size, size_t n,
                            double* out) {
  std::vector<float> cells(n);
  LIGHTMIRM_RETURN_NOT_OK(DecodeSplitStreams<4>(
      bytes, size, n, reinterpret_cast<uint8_t*>(cells.data())));
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(cells[i]);
  return Status::OK();
}

bool TryEncodeDoubleDictionary(const double* values, size_t n,
                               size_t max_dict, std::vector<uint8_t>* out) {
  // Match on bit patterns: NaNs with distinct payloads stay distinct and
  // -0.0 != +0.0, so the round trip is bit-exact.
  std::vector<uint64_t> symbols;
  std::vector<uint32_t> indices(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof(bits));
    size_t at = symbols.size();
    for (size_t s = 0; s < symbols.size(); ++s) {
      if (symbols[s] == bits) {
        at = s;
        break;
      }
    }
    if (at == symbols.size()) {
      if (symbols.size() >= max_dict) return false;
      symbols.push_back(bits);
    }
    indices[i] = static_cast<uint32_t>(at);
  }
  AppendVarint(symbols.size(), out);
  for (uint64_t s : symbols) {
    const size_t at = out->size();
    out->resize(at + sizeof(s));
    std::memcpy(out->data() + at, &s, sizeof(s));
  }
  if (n == 0 || symbols.empty()) return true;
  const int width = std::max(1, BitWidth(symbols.size() - 1));
  BitWriter writer(out);
  for (size_t i = 0; i < n; ++i) writer.Write(indices[i], width);
  writer.Flush();
  return true;
}

Status DecodeDoubleDictionary(const uint8_t* bytes, size_t size, size_t n,
                              double* out) {
  size_t pos = 0;
  uint64_t dict_size = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarint(bytes, size, &pos, &dict_size));
  if (dict_size > (size - pos) / sizeof(double)) {
    return Status::IoError("double dictionary truncated");
  }
  std::vector<double> symbols(dict_size);
  for (uint64_t s = 0; s < dict_size; ++s) {
    std::memcpy(&symbols[s], bytes + pos, sizeof(double));
    pos += sizeof(double);
  }
  if (n == 0) return Status::OK();
  if (dict_size == 0) {
    return Status::IoError("non-empty column with empty double dictionary");
  }
  const int width = std::max(1, BitWidth(dict_size - 1));
  BitReader reader(bytes + pos, size - pos);
  for (size_t i = 0; i < n; ++i) {
    uint64_t index = 0;
    LIGHTMIRM_RETURN_NOT_OK(reader.Read(width, &index));
    if (index >= dict_size) {
      return Status::IoError("double dictionary index out of range");
    }
    out[i] = symbols[index];
  }
  return Status::OK();
}

void EncodeServingGrid(const double* values, size_t n,
                       const std::vector<float>& grid,
                       std::vector<uint8_t>* out) {
  // grid.size() + 1 intervals; the top one also absorbs NaN (both compare
  // false against every threshold).
  const int width = std::max(1, BitWidth(grid.size()));
  out->push_back(static_cast<uint8_t>(width));
  BitWriter writer(out);
  for (size_t i = 0; i < n; ++i) {
    const float f = gbdt::QuantizeThreshold(values[i]);
    uint64_t interval;
    if (std::isnan(f)) {
      interval = grid.size();
    } else {
      interval = static_cast<uint64_t>(
          std::lower_bound(grid.begin(), grid.end(), f) - grid.begin());
    }
    writer.Write(interval, width);
  }
  writer.Flush();
}

Status DecodeServingGrid(const uint8_t* bytes, size_t size, size_t n,
                         const std::vector<float>& grid, double* out) {
  if (n == 0) {
    return Status::OK();
  }
  if (size == 0) {
    return Status::IoError("serving-grid payload truncated");
  }
  const int width = bytes[0];
  if (width == 0 || width > 64 ||
      width != std::max(1, BitWidth(grid.size()))) {
    return Status::IoError("serving-grid width does not match the grid");
  }
  BitReader reader(bytes + 1, size - 1);
  for (size_t i = 0; i < n; ++i) {
    uint64_t interval = 0;
    LIGHTMIRM_RETURN_NOT_OK(reader.Read(width, &interval));
    if (interval > grid.size()) {
      return Status::IoError("serving-grid interval out of range");
    }
    // The top interval (above every threshold, or NaN) decodes to NaN:
    // like the original value it compares false against every grid entry
    // on both kernels (NaN goes right), whereas +inf would compare true
    // against a hypothetical +inf threshold.
    out[i] = interval < grid.size()
                 ? static_cast<double>(grid[interval])
                 : std::numeric_limits<double>::quiet_NaN();
  }
  return Status::OK();
}

}  // namespace lightmirm::data
