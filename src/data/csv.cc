#include "data/csv.h"

#include <fstream>
#include <limits>

#include "common/string_util.h"

namespace lightmirm::data {
namespace {

// The label, env, year and half cells hold ints; a value outside int is an
// error naming its line, never a silent narrowing.
Result<int> ParseIntCell(const std::string& cell, const char* column,
                         size_t lineno) {
  const Result<int64_t> v = ParseInt(cell);
  if (!v.ok()) {
    return Status(v.status().code(),
                  StrFormat("line %zu: %s: %s", lineno, column,
                            v.status().message().c_str()));
  }
  if (*v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max()) {
    return Status::OutOfRange(StrFormat(
        "line %zu: %s %s is outside the int range", lineno, column,
        cell.c_str()));
  }
  return static_cast<int>(*v);
}

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "label,env,year,half";
  for (const FieldSpec& f : dataset.schema().fields()) out << "," << f.name;
  out << "\n";
  const size_t n = dataset.NumRows();
  const size_t d = dataset.NumFeatures();
  for (size_t i = 0; i < n; ++i) {
    out << dataset.labels()[i] << "," << dataset.envs()[i] << ","
        << dataset.years()[i] << "," << dataset.halves()[i];
    const double* row = dataset.features().Row(i);
    for (size_t j = 0; j < d; ++j) {
      out << "," << StrFormat("%.9g", row[j]);
    }
    out << "\n";
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Dataset> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError("empty csv file: " + path);
  }
  const std::vector<std::string> header = Split(Trim(line), ',');
  if (header.size() < 4 || header[0] != "label" || header[1] != "env" ||
      header[2] != "year" || header[3] != "half") {
    return Status::InvalidArgument(
        "csv header must start with label,env,year,half: " + path);
  }
  std::vector<FieldSpec> fields;
  for (size_t j = 4; j < header.size(); ++j) {
    fields.push_back(FieldSpec{header[j], FeatureKind::kNumeric, 0});
  }
  const size_t d = fields.size();

  std::vector<double> values;
  std::vector<int> labels, envs, years, halves;
  size_t rows = 0;
  size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const std::vector<std::string> cells = Split(trimmed, ',');
    if (cells.size() != 4 + d) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected %zu cells, got %zu", lineno, 4 + d,
                    cells.size()));
    }
    LIGHTMIRM_ASSIGN_OR_RETURN(const int label,
                               ParseIntCell(cells[0], "label", lineno));
    LIGHTMIRM_ASSIGN_OR_RETURN(const int env,
                               ParseIntCell(cells[1], "env", lineno));
    LIGHTMIRM_ASSIGN_OR_RETURN(const int year,
                               ParseIntCell(cells[2], "year", lineno));
    LIGHTMIRM_ASSIGN_OR_RETURN(const int half,
                               ParseIntCell(cells[3], "half", lineno));
    labels.push_back(label);
    envs.push_back(env);
    years.push_back(year);
    halves.push_back(half);
    for (size_t j = 0; j < d; ++j) {
      LIGHTMIRM_ASSIGN_OR_RETURN(const double v, ParseDouble(cells[4 + j]));
      values.push_back(v);
    }
    ++rows;
  }
  Matrix feats(rows, d, std::move(values));
  Dataset dataset(Schema(std::move(fields)), std::move(feats),
                  std::move(labels), std::move(envs), std::move(years),
                  std::move(halves));
  LIGHTMIRM_RETURN_NOT_OK(dataset.Validate());
  return dataset;
}

}  // namespace lightmirm::data
