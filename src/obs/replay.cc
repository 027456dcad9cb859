#include "obs/replay.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

namespace lightmirm::obs {

AlertState ReplayResult::WorstState(int env) const {
  AlertState worst = AlertState::kOk;
  for (const ReplayPeriod& period : periods) {
    const auto it = period.health.per_env.find(env);
    if (it == period.health.per_env.end()) continue;
    if (static_cast<int>(it->second.overall) > static_cast<int>(worst)) {
      worst = it->second.overall;
    }
  }
  return worst;
}

AlertState ReplayResult::WorstOverall() const {
  AlertState worst = AlertState::kOk;
  for (const ReplayPeriod& period : periods) {
    if (static_cast<int>(period.health.overall) > static_cast<int>(worst)) {
      worst = period.health.overall;
    }
  }
  return worst;
}

bool ReplayResult::ReachedAlert(int env) const {
  return WorstState(env) == AlertState::kAlert;
}

namespace {

// Each (year, half) period's rows as (chunk, row) pairs in stream order;
// the map iterates periods chronologically. The in-RAM stream is one
// chunk, numbered 0.
using PeriodIndex =
    std::map<std::pair<int, int>, std::vector<std::pair<size_t, size_t>>>;

Status CheckArguments(const ModelHealthMonitor* monitor,
                      const ReplayOptions& options) {
  if (monitor == nullptr) {
    return Status::InvalidArgument("monitor must be non-null");
  }
  if (options.batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  return Status::OK();
}

// The one period loop behind both entry points: scores each period in
// batches of options.batch_rows, feeds every batch to the monitor and
// evaluates it once per period. `chunk_at(c)` returns the dataset holding
// chunk c's rows; each row is copied once, into its batch.
template <typename ChunkAt>
Result<ReplayResult> ReplayPeriods(const serve::ScoringSession& session,
                                   ModelHealthMonitor* monitor,
                                   const PeriodIndex& periods, size_t width,
                                   const ReplayOptions& options,
                                   ChunkAt chunk_at) {
  if (periods.empty()) {
    return Status::InvalidArgument("no rows to replay after the year filter");
  }
  ReplayResult result;
  result.periods.reserve(periods.size());
  std::vector<double> scores;
  for (const auto& [when, rows] : periods) {
    for (size_t begin = 0; begin < rows.size(); begin += options.batch_rows) {
      const size_t n = std::min(rows.size() - begin, options.batch_rows);
      Matrix feats(n, width);
      std::vector<int> envs(n), labels(n);
      for (size_t i = 0; i < n; ++i) {
        const auto [chunk, row] = rows[begin + i];
        LIGHTMIRM_ASSIGN_OR_RETURN(const data::Dataset* source,
                                   chunk_at(chunk));
        const double* src = source->features().Row(row);
        std::copy(src, src + width, feats.Row(i));
        envs[i] = source->envs()[row];
        labels[i] = source->labels()[row];
      }
      LIGHTMIRM_RETURN_NOT_OK(session.Score(feats, &envs, &scores));
      LIGHTMIRM_RETURN_NOT_OK(monitor->ObserveBatch(
          scores, &envs, options.feed_labels ? &labels : nullptr));
    }
    ReplayPeriod replayed;
    replayed.year = when.first;
    replayed.half = when.second;
    replayed.rows = rows.size();
    replayed.health = monitor->Evaluate(options.registry);
    result.periods.push_back(std::move(replayed));
  }
  return result;
}

}  // namespace

Result<ReplayResult> ReplayStream(const serve::ScoringSession& session,
                                  ModelHealthMonitor* monitor,
                                  const data::Dataset& stream,
                                  const ReplayOptions& options) {
  LIGHTMIRM_RETURN_NOT_OK(CheckArguments(monitor, options));
  if (stream.NumRows() == 0) {
    return Status::InvalidArgument("empty replay stream");
  }
  PeriodIndex periods;
  for (size_t i = 0; i < stream.NumRows(); ++i) {
    if (options.only_year != 0 && stream.years()[i] != options.only_year) {
      continue;
    }
    periods[{stream.years()[i], stream.halves()[i]}].push_back({0, i});
  }
  return ReplayPeriods(
      session, monitor, periods, stream.NumFeatures(), options,
      [&stream](size_t) -> Result<const data::Dataset*> { return &stream; });
}

Result<ReplayResult> ReplayCompressedStream(
    const serve::ScoringSession& session, ModelHealthMonitor* monitor,
    data::ColumnStoreReader* reader, const ReplayOptions& options) {
  LIGHTMIRM_RETURN_NOT_OK(CheckArguments(monitor, options));
  if (reader == nullptr) {
    return Status::InvalidArgument("reader must be non-null");
  }
  if (reader->total_rows() == 0) {
    return Status::InvalidArgument("empty replay stream");
  }
  // The period index comes from chunk headers and int columns only. The
  // chunk index's year range skips whole chunks under a year filter;
  // feature payloads are not touched either way. Chunks ascend and rows
  // within a chunk ascend, so each period's rows are in global dataset
  // order — the order ReplayStream visits.
  PeriodIndex periods;
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    const data::ChunkInfo& info = reader->chunk(c);
    if (options.only_year != 0 && (info.year_min > options.only_year ||
                                   info.year_max < options.only_year)) {
      continue;
    }
    LIGHTMIRM_ASSIGN_OR_RETURN(const data::ChunkTimes times,
                               reader->ReadChunkTimes(c));
    for (size_t r = 0; r < times.years.size(); ++r) {
      if (options.only_year != 0 && times.years[r] != options.only_year) {
        continue;
      }
      periods[{times.years[r], times.halves[r]}].push_back({c, r});
    }
  }
  // A chunk is decoded only when one of its rows comes due, and one
  // decoded chunk stays cached (rows ascend within a period, so each
  // period streams chunks forward).
  size_t cached_index = std::numeric_limits<size_t>::max();
  data::Dataset cached_chunk;
  return ReplayPeriods(
      session, monitor, periods, reader->schema().num_features(), options,
      [&](size_t chunk) -> Result<const data::Dataset*> {
        if (chunk != cached_index) {
          LIGHTMIRM_ASSIGN_OR_RETURN(cached_chunk, reader->ReadChunk(chunk));
          cached_index = chunk;
        }
        return &cached_chunk;
      });
}

}  // namespace lightmirm::obs
