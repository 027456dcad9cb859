// Chunked writer/reader contract of the compressed column store: lossless
// stores round-trip a Dataset bit-exactly (across chunk boundaries, with a
// partial tail chunk), quantized stores reproduce the QuantizeThreshold
// float image, the chunk index carries usable year/env stats, the
// times-only and stats-only readers never touch feature payloads they
// don't need, and malformed inputs (schema mismatch, missing Finish,
// trailing bytes) surface as Status errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/column_store.h"
#include "data/dataset.h"
#include "data/loan_generator.h"
#include "gbdt/tree.h"

namespace lightmirm::data {
namespace {

// Unique-ish path under the build tree's temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

// Small synthetic dataset with the column shapes the store targets:
// gaussian numerics, a one-hot block, NaN holes, and int columns.
Dataset MakeDataset(size_t rows, uint64_t seed) {
  std::vector<FieldSpec> fields = {
      {"num_a", FeatureKind::kNumeric, 0},
      {"num_b", FeatureKind::kNumeric, 0},
      {"flag", FeatureKind::kBinary, 0},
      {"cat", FeatureKind::kCategorical, 4},
  };
  Rng rng(seed);
  Matrix feats(rows, fields.size());
  std::vector<int> labels(rows), envs(rows), years(rows), halves(rows);
  for (size_t r = 0; r < rows; ++r) {
    feats.At(r, 0) = rng.Normal();
    feats.At(r, 1) = rng.Bernoulli(0.05)
                         ? std::numeric_limits<double>::quiet_NaN()
                         : rng.Normal(3.0, 10.0);
    feats.At(r, 2) = rng.Bernoulli(0.3) ? 1.0 : 0.0;
    feats.At(r, 3) = static_cast<double>(rng.UniformInt(4));
    labels[r] = rng.Bernoulli(0.1) ? 1 : 0;
    envs[r] = static_cast<int>(rng.UniformInt(31));
    years[r] = 2016 + static_cast<int>(r / ((rows / 5) + 1));
    halves[r] = rng.Bernoulli(0.5) ? 2 : 1;
  }
  Dataset dataset(Schema(fields), std::move(feats), std::move(labels),
                  std::move(envs), std::move(years), std::move(halves));
  dataset.set_env_names({});
  return dataset;
}

void ExpectDatasetsBitIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumFeatures(), b.NumFeatures());
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_EQ(a.envs(), b.envs());
  EXPECT_EQ(a.years(), b.years());
  EXPECT_EQ(a.halves(), b.halves());
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumFeatures(); ++c) {
      EXPECT_TRUE(SameBits(a.features().At(r, c), b.features().At(r, c)))
          << "row " << r << " col " << c;
    }
  }
}

TEST(ColumnStoreTest, LosslessRoundTripAcrossChunks) {
  const Dataset dataset = MakeDataset(1000, 99);
  TempFile file("column_store_lossless.lmcs");
  ColumnStoreOptions options;
  options.chunk_rows = 256;  // 3 full chunks + a 232-row tail
  auto writer = ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                        options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(dataset).ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->rows_written(), dataset.NumRows());

  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->total_rows(), dataset.NumRows());
  EXPECT_EQ(reader->num_chunks(), 4u);
  EXPECT_EQ(reader->chunk(0).rows, 256u);
  EXPECT_EQ(reader->chunk(3).rows, 232u);
  EXPECT_TRUE(reader->schema() == dataset.schema());
  EXPECT_EQ(reader->feature_encoding(), FeatureEncoding::kLossless);
  EXPECT_EQ(reader->file_bytes(), writer->bytes_written());

  size_t row = 0;
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    auto chunk = reader->ReadChunk(c);
    ASSERT_TRUE(chunk.ok());
    std::vector<size_t> ids(chunk->NumRows());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = row + i;
    auto expected = dataset.Select(ids);
    ASSERT_TRUE(expected.ok());
    ExpectDatasetsBitIdentical(*expected, *chunk);
    row += chunk->NumRows();
  }
}

TEST(ColumnStoreTest, ChunkIndexStatsAndTimesOnlyReads) {
  const Dataset dataset = MakeDataset(600, 7);
  TempFile file("column_store_times.lmcs");
  ColumnStoreOptions options;
  options.chunk_rows = 200;
  auto writer = ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                        options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(dataset).ok());
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());
  size_t row = 0;
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    const ChunkInfo& info = reader->chunk(c);
    auto times = reader->ReadChunkTimes(c);
    ASSERT_TRUE(times.ok());
    ASSERT_EQ(times->years.size(), info.rows);
    int year_min = times->years[0], year_max = times->years[0];
    for (size_t i = 0; i < info.rows; ++i) {
      EXPECT_EQ(times->labels[i], dataset.labels()[row + i]);
      EXPECT_EQ(times->envs[i], dataset.envs()[row + i]);
      EXPECT_EQ(times->years[i], dataset.years()[row + i]);
      EXPECT_EQ(times->halves[i], dataset.halves()[row + i]);
      year_min = std::min(year_min, times->years[i]);
      year_max = std::max(year_max, times->years[i]);
    }
    EXPECT_EQ(info.year_min, year_min);
    EXPECT_EQ(info.year_max, year_max);
    row += info.rows;
  }

  // Feature stats match a direct scan (NaN-skipping min/max).
  auto stats = reader->ReadChunkFeatureStats(0);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), dataset.NumFeatures());
  for (size_t f = 0; f < dataset.NumFeatures(); ++f) {
    double lo = std::numeric_limits<double>::quiet_NaN(), hi = lo;
    for (size_t r = 0; r < reader->chunk(0).rows; ++r) {
      const double v = dataset.features().At(r, f);
      if (std::isnan(v)) continue;
      if (std::isnan(lo) || v < lo) lo = v;
      if (std::isnan(hi) || v > hi) hi = v;
    }
    EXPECT_TRUE(SameBits((*stats)[f].min, lo)) << "feature " << f;
    EXPECT_TRUE(SameBits((*stats)[f].max, hi)) << "feature " << f;
  }
}

TEST(ColumnStoreTest, QuantizedStoreHoldsTheFloatImage) {
  const Dataset dataset = MakeDataset(300, 21);
  TempFile file("column_store_quantized.lmcs");
  ColumnStoreOptions options;
  options.feature_encoding = FeatureEncoding::kQuantized;
  options.chunk_rows = 128;
  auto writer = ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                        options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(dataset).ok());
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->feature_encoding(), FeatureEncoding::kQuantized);
  size_t row = 0;
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    auto chunk = reader->ReadChunk(c);
    ASSERT_TRUE(chunk.ok());
    for (size_t r = 0; r < chunk->NumRows(); ++r) {
      for (size_t f = 0; f < chunk->NumFeatures(); ++f) {
        const double original = dataset.features().At(row + r, f);
        const double image =
            static_cast<double>(gbdt::QuantizeThreshold(original));
        const double decoded = chunk->features().At(r, f);
        EXPECT_TRUE(SameBits(decoded, image) ||
                    (std::isnan(decoded) && std::isnan(image)))
            << "row " << row + r << " col " << f;
      }
    }
    row += chunk->NumRows();
  }
  // The quantized file is smaller than the lossless one for the same data.
  TempFile lossless("column_store_quantized_ref.lmcs");
  auto ref_writer = ColumnStoreWriter::Open(lossless.path(),
                                            dataset.schema(), {}, {});
  ASSERT_TRUE(ref_writer.ok());
  ASSERT_TRUE(ref_writer->Append(dataset).ok());
  ASSERT_TRUE(ref_writer->Finish().ok());
  EXPECT_LT(writer->bytes_written(), ref_writer->bytes_written());
}

TEST(ColumnStoreTest, GeneratorStreamsBitIdenticalRows) {
  LoanGeneratorOptions gen;
  gen.rows_per_year = 1200;
  gen.seed = 3;
  LoanGenerator generator(gen);
  auto dataset = generator.Generate();
  ASSERT_TRUE(dataset.ok());

  TempFile file("column_store_generator.lmcs");
  ColumnStoreOptions options;
  options.chunk_rows = 1024;
  auto rows = generator.GenerateToStore(file.path(), options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, dataset->NumRows());

  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->total_rows(), dataset->NumRows());
  EXPECT_TRUE(reader->schema() == dataset->schema());
  EXPECT_EQ(reader->env_names(), dataset->env_names());
  size_t row = 0;
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    auto chunk = reader->ReadChunk(c);
    ASSERT_TRUE(chunk.ok());
    std::vector<size_t> ids(chunk->NumRows());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = row + i;
    auto expected = dataset->Select(ids);
    ASSERT_TRUE(expected.ok());
    ExpectDatasetsBitIdentical(*expected, *chunk);
    row += chunk->NumRows();
  }
}

TEST(ColumnStoreTest, WriterValidatesItsInputs) {
  const Dataset dataset = MakeDataset(50, 1);
  TempFile file("column_store_invalid.lmcs");

  ColumnStoreOptions zero_chunk;
  zero_chunk.chunk_rows = 0;
  EXPECT_FALSE(ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                       zero_chunk)
                   .ok());

  ColumnStoreOptions grid_without_grids;
  grid_without_grids.feature_encoding = FeatureEncoding::kServingGrid;
  EXPECT_FALSE(ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                       grid_without_grids)
                   .ok());

  ColumnStoreOptions grids_without_grid_mode;
  grids_without_grid_mode.feature_grids.resize(dataset.NumFeatures());
  EXPECT_FALSE(ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                       grids_without_grid_mode)
                   .ok());

  auto writer = ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                        {});
  ASSERT_TRUE(writer.ok());
  // Mismatched schema is rejected.
  const Dataset other(Schema({{"x", FeatureKind::kNumeric, 0}}),
                      Matrix(1, 1), {0}, {0}, {2016}, {1});
  EXPECT_FALSE(writer->Append(other).ok());
  ASSERT_TRUE(writer->Append(dataset).ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_FALSE(writer->Finish().ok());   // double finish
  EXPECT_FALSE(writer->Append(dataset).ok());  // append after finish
}

TEST(ColumnStoreTest, ReaderRejectsMalformedFiles) {
  EXPECT_FALSE(ColumnStoreReader::Open("/nonexistent/store.lmcs").ok());

  const Dataset dataset = MakeDataset(100, 2);
  TempFile file("column_store_malformed.lmcs");
  {
    auto writer = ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                          {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(dataset).ok());
    // No Finish: the store has no end marker.
  }
  EXPECT_FALSE(ColumnStoreReader::Open(file.path()).ok());

  {
    auto writer = ColumnStoreWriter::Open(file.path(), dataset.schema(), {},
                                          {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(dataset).ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  ASSERT_TRUE(ColumnStoreReader::Open(file.path()).ok());
  // Trailing bytes after the end marker are rejected.
  {
    std::ofstream tail(file.path(), std::ios::binary | std::ios::app);
    tail << "junk";
  }
  EXPECT_FALSE(ColumnStoreReader::Open(file.path()).ok());
}

TEST(ColumnStoreTest, ColumnPayloadLengthCannotWrap) {
  // A hand-built store: no features, one 1-row chunk whose first int
  // column claims a 2^64-1 byte payload. Wrapped, the header check passed
  // and the cursor stepped back onto the varint's last byte, which then
  // parsed as the next column's header, so the corrupt chunk read as OK.
  const std::vector<uint8_t> body = {
      0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
      0x02, 0x00, 0x00,        // the payload both "columns" read from
      0x01, 0x02, 0x00, 0x00,  // years
      0x01, 0x02, 0x00, 0x00,  // halves
  };
  const std::vector<uint8_t> header = {
      'L', 'M', 'C', 'S', 0x01, 0x00,
      0x00,                                            // features
      0x00,                                            // environments
      0x01,                                            // chunk rows
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // chunk stats
      static_cast<uint8_t>(body.size()),
  };
  TempFile path("column_store_wrapping_payload.lmcs");
  {
    std::ofstream out(path.path(), std::ios::binary);
    for (const std::vector<uint8_t>* part : {&header, &body}) {
      out.write(reinterpret_cast<const char*>(part->data()),
                static_cast<std::streamsize>(part->size()));
    }
    out.put(0x00);  // end marker
  }
  auto reader = ColumnStoreReader::Open(path.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto chunk = reader->ReadChunk(0);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lightmirm::data
