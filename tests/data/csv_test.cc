#include "data/csv.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <fstream>

namespace lightmirm::data {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Dataset MakeDataset() {
  Schema schema({{"alpha", FeatureKind::kNumeric, 0},
                 {"beta", FeatureKind::kNumeric, 0}});
  Matrix feats(3, 2, {0.5, -1.25, 3.0, 4.5, 1e-9, 7.0});
  return Dataset(std::move(schema), std::move(feats), {0, 1, 0}, {0, 1, 1},
                 {2016, 2017, 2020}, {1, 2, 1});
}

TEST(CsvTest, RoundTripPreservesEverything) {
  const std::string path = TempPath("roundtrip.csv");
  const Dataset original = MakeDataset();
  ASSERT_TRUE(WriteCsv(original, path).ok());
  const Dataset loaded = *ReadCsv(path);
  ASSERT_EQ(loaded.NumRows(), original.NumRows());
  ASSERT_EQ(loaded.NumFeatures(), original.NumFeatures());
  EXPECT_EQ(loaded.schema().field(0).name, "alpha");
  EXPECT_EQ(loaded.schema().field(1).name, "beta");
  for (size_t i = 0; i < original.NumRows(); ++i) {
    EXPECT_EQ(loaded.labels()[i], original.labels()[i]);
    EXPECT_EQ(loaded.envs()[i], original.envs()[i]);
    EXPECT_EQ(loaded.years()[i], original.years()[i]);
    EXPECT_EQ(loaded.halves()[i], original.halves()[i]);
    for (size_t j = 0; j < original.NumFeatures(); ++j) {
      EXPECT_DOUBLE_EQ(loaded.features().At(i, j),
                       original.features().At(i, j));
    }
  }
}

TEST(CsvTest, MissingFileIsIoError) {
  auto r = ReadCsv("/nonexistent/dir/file.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, BadHeaderRejected) {
  const std::string path = TempPath("badheader.csv");
  std::ofstream(path) << "foo,bar\n1,2\n";
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST(CsvTest, WrongCellCountRejected) {
  const std::string path = TempPath("badcells.csv");
  std::ofstream(path) << "label,env,year,half,f\n1,0,2016,1\n";
  auto r = ReadCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, MalformedNumberRejected) {
  const std::string path = TempPath("badnum.csv");
  std::ofstream(path) << "label,env,year,half,f\n1,0,2016,1,xyz\n";
  EXPECT_FALSE(ReadCsv(path).ok());
}

// Label, env, year and half are ints: a wider value is an error naming its
// line, not a silent wrap (4294967297 used to load as label 1).
TEST(CsvTest, IntegerColumnsOutsideIntRejected) {
  const std::string path = TempPath("wide_ints.csv");
  std::ofstream(path) << "label,env,year,half,f\n0,1,2016,1,0.5\n"
                         "4294967297,4294967296,4294969312,1,0.5\n";
  auto r = ReadCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
  for (const char* row : {"0,-2147483649,2016,1,0.5",
                          "0,0,2016,2147483648,0.5"}) {
    std::ofstream(path) << "label,env,year,half,f\n" << row << "\n";
    EXPECT_FALSE(ReadCsv(path).ok()) << row;
  }
  std::ofstream(path) << "label,env,year,half,f\n"
                         "1,2147483647,-2147483648,1,0.5\n";
  const auto ok = ReadCsv(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->envs()[0], INT_MAX);
  EXPECT_EQ(ok->years()[0], INT_MIN);
}

TEST(CsvTest, SkipsBlankLines) {
  const std::string path = TempPath("blank.csv");
  std::ofstream(path) << "label,env,year,half,f\n1,0,2016,1,2.5\n\n0,1,2017,"
                         "2,-1\n";
  const Dataset ds = *ReadCsv(path);
  EXPECT_EQ(ds.NumRows(), 2u);
}

}  // namespace
}  // namespace lightmirm::data
