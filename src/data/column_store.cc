#include "data/column_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "data/codec.h"
#include "gbdt/tree.h"

namespace lightmirm::data {
namespace {

constexpr char kMagic[4] = {'L', 'M', 'C', 'S'};
constexpr uint8_t kVersion = 1;

// Column order inside a chunk body: the four int columns first (so
// ReadChunkTimes decodes a prefix), then the features.
constexpr size_t kIntColumns = 4;

void AppendRaw(const void* bytes, size_t n, std::vector<uint8_t>* out) {
  const uint8_t* p = static_cast<const uint8_t*>(bytes);
  out->insert(out->end(), p, p + n);
}

Status WriteAll(std::ofstream& out, const std::vector<uint8_t>& bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good() ? Status::OK()
                    : Status::IoError("column store write failed");
}

Status ReadVarintStream(std::istream& in, uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof() || shift > 63) {
      return Status::IoError("column store varint truncated");
    }
    v |= static_cast<uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
  }
  *value = v;
  return Status::OK();
}

Status ReadZigzagStream(std::istream& in, int64_t* value) {
  uint64_t raw = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(in, &raw));
  *value = ZigzagDecode(raw);
  return Status::OK();
}

Status ReadExact(std::istream& in, void* bytes, size_t n) {
  in.read(static_cast<char*>(bytes), static_cast<std::streamsize>(n));
  return static_cast<size_t>(in.gcount()) == n
             ? Status::OK()
             : Status::IoError("column store payload truncated");
}

Status ReadString(std::istream& in, std::string* out) {
  uint64_t len = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(in, &len));
  if (len > (1u << 20)) {
    return Status::IoError("column store string length implausible");
  }
  out->resize(len);
  return ReadExact(in, out->data(), len);
}

// One encoded column staged for a chunk body: codec byte, payload, and for
// feature columns the 16-byte min/max stat block.
void AppendColumn(ColumnCodec codec, const std::vector<uint8_t>& payload,
                  const double* stats, std::vector<uint8_t>* body) {
  body->push_back(static_cast<uint8_t>(codec));
  AppendVarint(payload.size(), body);
  if (stats != nullptr) AppendRaw(stats, 2 * sizeof(double), body);
  body->insert(body->end(), payload.begin(), payload.end());
}

// Smaller of delta-bitpack and RLE-dictionary for an int column.
void EncodeIntColumn(const int64_t* values, size_t n,
                     std::vector<uint8_t>* body) {
  std::vector<uint8_t> delta, dict;
  EncodeDeltaBitpack(values, n, &delta);
  EncodeRleDictionary(values, n, &dict);
  if (delta.size() <= dict.size()) {
    AppendColumn(ColumnCodec::kDeltaBitpack, delta, nullptr, body);
  } else {
    AppendColumn(ColumnCodec::kRleDictionary, dict, nullptr, body);
  }
}

struct ColumnHeader {
  ColumnCodec codec;
  size_t payload_begin = 0;
  size_t payload_size = 0;
  double stat_min = 0.0;
  double stat_max = 0.0;
};

// Parses one column header from a chunk body buffer, leaving *pos at the
// byte after the payload.
Status ParseColumnHeader(const uint8_t* body, size_t size, size_t* pos,
                         bool has_stats, ColumnHeader* header) {
  if (*pos >= size) {
    return Status::IoError("chunk body truncated at column header");
  }
  header->codec = static_cast<ColumnCodec>(body[(*pos)++]);
  uint64_t payload = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarint(body, size, pos, &payload));
  if (has_stats) {
    if (*pos + 2 * sizeof(double) > size) {
      return Status::IoError("chunk body truncated at column stats");
    }
    std::memcpy(&header->stat_min, body + *pos, sizeof(double));
    std::memcpy(&header->stat_max, body + *pos + sizeof(double),
                sizeof(double));
    *pos += 2 * sizeof(double);
  }
  if (payload > size - *pos) {  // never *pos + payload: it can wrap
    return Status::IoError("chunk body truncated inside column payload");
  }
  header->payload_begin = *pos;
  header->payload_size = payload;
  *pos += payload;
  return Status::OK();
}

Status DecodeIntColumn(const ColumnHeader& header, const uint8_t* body,
                       size_t n, std::vector<int>* out) {
  std::vector<int64_t> wide(n);
  const uint8_t* payload = body + header.payload_begin;
  switch (header.codec) {
    case ColumnCodec::kDeltaBitpack:
      LIGHTMIRM_RETURN_NOT_OK(
          DecodeDeltaBitpack(payload, header.payload_size, n, wide.data()));
      break;
    case ColumnCodec::kRleDictionary:
      LIGHTMIRM_RETURN_NOT_OK(
          DecodeRleDictionary(payload, header.payload_size, n, wide.data()));
      break;
    default:
      return Status::IoError(
          StrFormat("unexpected codec %d for an int column",
                    static_cast<int>(header.codec)));
  }
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (wide[i] < std::numeric_limits<int>::min() ||
        wide[i] > std::numeric_limits<int>::max()) {
      return Status::IoError("int column value out of range");
    }
    (*out)[i] = static_cast<int>(wide[i]);
  }
  return Status::OK();
}

}  // namespace

const char* FeatureEncodingName(FeatureEncoding encoding) {
  switch (encoding) {
    case FeatureEncoding::kLossless:
      return "lossless";
    case FeatureEncoding::kQuantized:
      return "quantized";
    case FeatureEncoding::kServingGrid:
      return "serving_grid";
  }
  return "unknown";
}

Result<ColumnStoreWriter> ColumnStoreWriter::Open(
    const std::string& path, const Schema& schema,
    std::vector<std::string> env_names, ColumnStoreOptions options) {
  if (options.chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  if (options.feature_encoding == FeatureEncoding::kServingGrid) {
    if (options.feature_grids.size() != schema.num_features()) {
      return Status::InvalidArgument(StrFormat(
          "serving-grid encoding needs one grid per feature (%zu grids, "
          "%zu features)",
          options.feature_grids.size(), schema.num_features()));
    }
    for (const std::vector<float>& grid : options.feature_grids) {
      if (!std::is_sorted(grid.begin(), grid.end())) {
        return Status::InvalidArgument("feature grids must be sorted");
      }
    }
  } else if (!options.feature_grids.empty()) {
    return Status::InvalidArgument(
        "feature_grids is only meaningful with the serving-grid encoding");
  }

  ColumnStoreWriter writer;
  writer.out_ = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::trunc);
  if (!*writer.out_) {
    return Status::IoError("cannot open for writing: " + path);
  }
  writer.schema_ = schema;
  writer.env_names_ = std::move(env_names);
  writer.options_ = std::move(options);

  std::vector<uint8_t> header;
  AppendRaw(kMagic, sizeof(kMagic), &header);
  header.push_back(kVersion);
  header.push_back(static_cast<uint8_t>(writer.options_.feature_encoding));
  AppendVarint(schema.num_features(), &header);
  for (const FieldSpec& field : schema.fields()) {
    AppendVarint(field.name.size(), &header);
    AppendRaw(field.name.data(), field.name.size(), &header);
    header.push_back(static_cast<uint8_t>(field.kind));
    AppendVarint(static_cast<uint64_t>(field.cardinality), &header);
  }
  AppendVarint(writer.env_names_.size(), &header);
  for (const std::string& name : writer.env_names_) {
    AppendVarint(name.size(), &header);
    AppendRaw(name.data(), name.size(), &header);
  }
  if (writer.options_.feature_encoding == FeatureEncoding::kServingGrid) {
    for (const std::vector<float>& grid : writer.options_.feature_grids) {
      AppendVarint(grid.size(), &header);
      AppendRaw(grid.data(), grid.size() * sizeof(float), &header);
    }
  }
  LIGHTMIRM_RETURN_NOT_OK(WriteAll(*writer.out_, header));
  writer.bytes_written_ = header.size();
  return writer;
}

Status ColumnStoreWriter::Append(const Dataset& rows) {
  if (finished_) {
    return Status::FailedPrecondition("writer already finished");
  }
  if (!(rows.schema() == schema_)) {
    return Status::InvalidArgument(
        "appended dataset schema does not match the store");
  }
  const size_t n = rows.NumRows();
  const size_t d = schema_.num_features();
  features_.reserve((buffered_rows_ + n) * d);
  for (size_t r = 0; r < n; ++r) {
    const double* row = rows.features().Row(r);
    features_.insert(features_.end(), row, row + d);
    labels_.push_back(rows.labels()[r]);
    envs_.push_back(rows.envs()[r]);
    years_.push_back(rows.years()[r]);
    halves_.push_back(rows.halves()[r]);
  }
  buffered_rows_ += n;
  while (buffered_rows_ >= options_.chunk_rows) {
    LIGHTMIRM_RETURN_NOT_OK(FlushChunk(options_.chunk_rows));
  }
  return Status::OK();
}

Status ColumnStoreWriter::FlushChunk(size_t rows) {
  const size_t d = schema_.num_features();

  std::vector<uint8_t> body;
  EncodeIntColumn(labels_.data(), rows, &body);
  EncodeIntColumn(envs_.data(), rows, &body);
  EncodeIntColumn(years_.data(), rows, &body);
  EncodeIntColumn(halves_.data(), rows, &body);

  std::vector<double> column(rows);
  std::vector<uint8_t> payload;
  for (size_t f = 0; f < d; ++f) {
    for (size_t r = 0; r < rows; ++r) column[r] = features_[r * d + f];
    double stats[2] = {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::quiet_NaN()};
    for (double v : column) {
      if (std::isnan(v)) continue;
      if (std::isnan(stats[0]) || v < stats[0]) stats[0] = v;
      if (std::isnan(stats[1]) || v > stats[1]) stats[1] = v;
    }
    payload.clear();
    switch (options_.feature_encoding) {
      case FeatureEncoding::kLossless:
        if (TryEncodeDoubleDictionary(column.data(), rows,
                                      options_.max_double_dict, &payload)) {
          AppendColumn(ColumnCodec::kDoubleDictionary, payload, stats, &body);
        } else {
          EncodeByteStreamSplit(column.data(), rows, &payload);
          AppendColumn(ColumnCodec::kByteStreamSplit, payload, stats, &body);
        }
        break;
      case FeatureEncoding::kQuantized: {
        // Quantize first so a dictionary hit stores the same float image
        // the stream codec would.
        for (double& v : column) {
          v = static_cast<double>(gbdt::QuantizeThreshold(v));
        }
        if (TryEncodeDoubleDictionary(column.data(), rows,
                                      options_.max_double_dict, &payload)) {
          AppendColumn(ColumnCodec::kDoubleDictionary, payload, stats, &body);
        } else {
          EncodeQuantizedFloat(column.data(), rows, &payload);
          AppendColumn(ColumnCodec::kQuantizedFloat, payload, stats, &body);
        }
        break;
      }
      case FeatureEncoding::kServingGrid:
        EncodeServingGrid(column.data(), rows, options_.feature_grids[f],
                          &payload);
        AppendColumn(ColumnCodec::kServingGrid, payload, stats, &body);
        break;
    }
  }

  std::vector<uint8_t> header;
  AppendVarint(rows, &header);
  const auto minmax_of = [&](const std::vector<int64_t>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.begin() + rows);
    AppendVarint(ZigzagEncode(*lo), &header);
    AppendVarint(ZigzagEncode(*hi), &header);
  };
  minmax_of(labels_);
  minmax_of(envs_);
  minmax_of(years_);
  minmax_of(halves_);
  AppendVarint(body.size(), &header);
  LIGHTMIRM_RETURN_NOT_OK(WriteAll(*out_, header));
  LIGHTMIRM_RETURN_NOT_OK(WriteAll(*out_, body));
  bytes_written_ += header.size() + body.size();
  rows_written_ += rows;

  // Drop the flushed prefix.
  features_.erase(features_.begin(),
                  features_.begin() + static_cast<std::ptrdiff_t>(rows * d));
  const auto drop = [rows](std::vector<int64_t>& v) {
    v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rows));
  };
  drop(labels_);
  drop(envs_);
  drop(years_);
  drop(halves_);
  buffered_rows_ -= rows;
  return Status::OK();
}

Status ColumnStoreWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("writer already finished");
  }
  if (buffered_rows_ > 0) {
    LIGHTMIRM_RETURN_NOT_OK(FlushChunk(buffered_rows_));
  }
  std::vector<uint8_t> marker;
  AppendVarint(0, &marker);
  LIGHTMIRM_RETURN_NOT_OK(WriteAll(*out_, marker));
  bytes_written_ += marker.size();
  out_->flush();
  if (!out_->good()) {
    return Status::IoError("column store flush failed");
  }
  finished_ = true;
  return Status::OK();
}

Result<ColumnStoreReader> ColumnStoreReader::Open(const std::string& path) {
  ColumnStoreReader reader;
  reader.in_ = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*reader.in_) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::ifstream& in = *reader.in_;

  char magic[4];
  LIGHTMIRM_RETURN_NOT_OK(ReadExact(in, magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not a column store file (bad magic)");
  }
  const int version = in.get();
  if (version != kVersion) {
    return Status::IoError(
        StrFormat("unsupported column store version %d", version));
  }
  const int encoding = in.get();
  if (encoding < 0 || encoding > 2) {
    return Status::IoError(
        StrFormat("unknown feature encoding %d", encoding));
  }
  reader.feature_encoding_ = static_cast<FeatureEncoding>(encoding);

  uint64_t num_features = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(in, &num_features));
  std::vector<FieldSpec> fields;
  fields.reserve(num_features);
  for (uint64_t f = 0; f < num_features; ++f) {
    FieldSpec spec;
    LIGHTMIRM_RETURN_NOT_OK(ReadString(in, &spec.name));
    const int kind = in.get();
    if (kind < 0 || kind > 2) {
      return Status::IoError("unknown feature kind in schema");
    }
    spec.kind = static_cast<FeatureKind>(kind);
    uint64_t cardinality = 0;
    LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(in, &cardinality));
    spec.cardinality = static_cast<int>(cardinality);
    fields.push_back(std::move(spec));
  }
  reader.schema_ = Schema(std::move(fields));

  uint64_t num_envs = 0;
  LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(in, &num_envs));
  reader.env_names_.resize(num_envs);
  for (uint64_t e = 0; e < num_envs; ++e) {
    LIGHTMIRM_RETURN_NOT_OK(ReadString(in, &reader.env_names_[e]));
  }

  if (reader.feature_encoding_ == FeatureEncoding::kServingGrid) {
    reader.feature_grids_.resize(num_features);
    for (uint64_t f = 0; f < num_features; ++f) {
      uint64_t grid_size = 0;
      LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(in, &grid_size));
      reader.feature_grids_[f].resize(grid_size);
      LIGHTMIRM_RETURN_NOT_OK(ReadExact(in, reader.feature_grids_[f].data(),
                                        grid_size * sizeof(float)));
    }
  }

  // Chunk index scan: headers only, bodies are seeked past.
  while (true) {
    uint64_t rows = 0;
    LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(in, &rows));
    if (rows == 0) break;
    ChunkInfo info;
    info.rows = rows;
    int64_t stat = 0;
    int* stats[8] = {&info.label_min, &info.label_max, &info.env_min,
                     &info.env_max,   &info.year_min,  &info.year_max,
                     &info.half_min,  &info.half_max};
    for (int* slot : stats) {
      LIGHTMIRM_RETURN_NOT_OK(ReadZigzagStream(in, &stat));
      *slot = static_cast<int>(stat);
    }
    uint64_t body_bytes = 0;
    LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(in, &body_bytes));
    info.body_offset = static_cast<uint64_t>(in.tellg());
    info.body_bytes = body_bytes;
    in.seekg(static_cast<std::streamoff>(body_bytes), std::ios::cur);
    if (!in.good() || in.peek() == std::char_traits<char>::eof()) {
      return Status::IoError("column store truncated inside a chunk body");
    }
    reader.total_rows_ += rows;
    reader.chunks_.push_back(info);
  }
  const std::streampos end_of_stream = in.tellg();
  in.clear();
  in.seekg(0, std::ios::end);
  reader.file_bytes_ = static_cast<uint64_t>(in.tellg());
  if (static_cast<uint64_t>(end_of_stream) != reader.file_bytes_) {
    return Status::IoError("column store has trailing bytes after the end "
                           "marker");
  }
  return reader;
}

Result<Dataset> ColumnStoreReader::ReadChunk(size_t i) {
  if (i >= chunks_.size()) {
    return Status::OutOfRange(StrFormat("chunk %zu of %zu", i,
                                        chunks_.size()));
  }
  const ChunkInfo& info = chunks_[i];
  const size_t rows = static_cast<size_t>(info.rows);
  const size_t d = schema_.num_features();
  std::vector<uint8_t> body(info.body_bytes);
  in_->clear();
  in_->seekg(static_cast<std::streamoff>(info.body_offset));
  LIGHTMIRM_RETURN_NOT_OK(ReadExact(*in_, body.data(), body.size()));

  size_t pos = 0;
  ColumnHeader header;
  std::vector<int> labels, envs, years, halves;
  std::vector<int>* int_columns[kIntColumns] = {&labels, &envs, &years,
                                                &halves};
  for (std::vector<int>* column : int_columns) {
    LIGHTMIRM_RETURN_NOT_OK(ParseColumnHeader(body.data(), body.size(), &pos,
                                              /*has_stats=*/false, &header));
    LIGHTMIRM_RETURN_NOT_OK(
        DecodeIntColumn(header, body.data(), rows, column));
  }

  Matrix features(rows, d);
  std::vector<double> column(rows);
  for (size_t f = 0; f < d; ++f) {
    LIGHTMIRM_RETURN_NOT_OK(ParseColumnHeader(body.data(), body.size(), &pos,
                                              /*has_stats=*/true, &header));
    const uint8_t* payload = body.data() + header.payload_begin;
    switch (header.codec) {
      case ColumnCodec::kByteStreamSplit:
        LIGHTMIRM_RETURN_NOT_OK(DecodeByteStreamSplit(
            payload, header.payload_size, rows, column.data()));
        break;
      case ColumnCodec::kQuantizedFloat:
        LIGHTMIRM_RETURN_NOT_OK(DecodeQuantizedFloat(
            payload, header.payload_size, rows, column.data()));
        break;
      case ColumnCodec::kDoubleDictionary:
        LIGHTMIRM_RETURN_NOT_OK(DecodeDoubleDictionary(
            payload, header.payload_size, rows, column.data()));
        break;
      case ColumnCodec::kServingGrid:
        if (feature_grids_.size() != d) {
          return Status::IoError(
              "serving-grid chunk in a store without grids");
        }
        LIGHTMIRM_RETURN_NOT_OK(
            DecodeServingGrid(payload, header.payload_size, rows,
                              feature_grids_[f], column.data()));
        break;
      default:
        return Status::IoError(
            StrFormat("unexpected codec %d for a feature column",
                      static_cast<int>(header.codec)));
    }
    for (size_t r = 0; r < rows; ++r) features.At(r, f) = column[r];
  }
  if (pos != body.size()) {
    return Status::IoError("chunk body has trailing bytes");
  }

  Dataset chunk(schema_, std::move(features), std::move(labels),
                std::move(envs), std::move(years), std::move(halves));
  chunk.set_env_names(env_names_);
  return chunk;
}

Result<ChunkTimes> ColumnStoreReader::ReadChunkTimes(size_t i) {
  if (i >= chunks_.size()) {
    return Status::OutOfRange(StrFormat("chunk %zu of %zu", i,
                                        chunks_.size()));
  }
  const ChunkInfo& info = chunks_[i];
  const size_t rows = static_cast<size_t>(info.rows);
  in_->clear();
  in_->seekg(static_cast<std::streamoff>(info.body_offset));

  ChunkTimes times;
  std::vector<int>* int_columns[kIntColumns] = {&times.labels, &times.envs,
                                                &times.years, &times.halves};
  for (std::vector<int>* column : int_columns) {
    // Stream-parse just this column's header + payload; feature payloads
    // after the fourth column are never read.
    const int codec = in_->get();
    if (codec == std::char_traits<char>::eof()) {
      return Status::IoError("chunk body truncated at column header");
    }
    uint64_t payload_size = 0;
    LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(*in_, &payload_size));
    std::vector<uint8_t> payload(payload_size);
    LIGHTMIRM_RETURN_NOT_OK(ReadExact(*in_, payload.data(), payload_size));
    ColumnHeader header;
    header.codec = static_cast<ColumnCodec>(codec);
    header.payload_begin = 0;
    header.payload_size = payload_size;
    LIGHTMIRM_RETURN_NOT_OK(
        DecodeIntColumn(header, payload.data(), rows, column));
  }
  return times;
}

Result<std::vector<FeatureStats>> ColumnStoreReader::ReadChunkFeatureStats(
    size_t i) {
  if (i >= chunks_.size()) {
    return Status::OutOfRange(StrFormat("chunk %zu of %zu", i,
                                        chunks_.size()));
  }
  const ChunkInfo& info = chunks_[i];
  in_->clear();
  in_->seekg(static_cast<std::streamoff>(info.body_offset));

  const auto skip_column = [&](bool has_stats,
                               FeatureStats* stats) -> Status {
    const int codec = in_->get();
    if (codec == std::char_traits<char>::eof()) {
      return Status::IoError("chunk body truncated at column header");
    }
    uint64_t payload_size = 0;
    LIGHTMIRM_RETURN_NOT_OK(ReadVarintStream(*in_, &payload_size));
    if (has_stats) {
      double raw[2];
      LIGHTMIRM_RETURN_NOT_OK(ReadExact(*in_, raw, sizeof(raw)));
      stats->min = raw[0];
      stats->max = raw[1];
    }
    in_->seekg(static_cast<std::streamoff>(payload_size), std::ios::cur);
    return in_->good() ? Status::OK()
                       : Status::IoError("chunk body truncated");
  };

  for (size_t c = 0; c < kIntColumns; ++c) {
    LIGHTMIRM_RETURN_NOT_OK(skip_column(/*has_stats=*/false, nullptr));
  }
  std::vector<FeatureStats> stats(schema_.num_features());
  for (FeatureStats& s : stats) {
    LIGHTMIRM_RETURN_NOT_OK(skip_column(/*has_stats=*/true, &s));
  }
  return stats;
}

}  // namespace lightmirm::data
