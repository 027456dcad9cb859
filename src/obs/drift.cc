#include "obs/drift.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"

namespace lightmirm::obs {

uint64_t BinnedScores::Total() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

uint64_t BinnedScores::TotalPositives() const {
  uint64_t total = 0;
  for (uint64_t p : positives) total += p;
  return total;
}

double BinnedScores::DefaultRate() const {
  const uint64_t total = Total();
  if (total == 0) return 0.0;
  return static_cast<double>(TotalPositives()) / static_cast<double>(total);
}

std::vector<uint64_t> BinnedScores::Negatives() const {
  std::vector<uint64_t> neg(counts.size(), 0);
  for (size_t b = 0; b < counts.size(); ++b) neg[b] = counts[b] - positives[b];
  return neg;
}

std::string ScoreReference::EnvName(int env) const {
  if (env >= 0 && static_cast<size_t>(env) < env_names.size() &&
      !env_names[static_cast<size_t>(env)].empty()) {
    return env_names[static_cast<size_t>(env)];
  }
  return StrFormat("env%d", env);
}

namespace {

void WriteBins(const BinnedScores& bins, std::ostream* out) {
  for (uint64_t c : bins.counts) {
    (*out) << " " << static_cast<unsigned long long>(c);
  }
  for (uint64_t p : bins.positives) {
    (*out) << " " << static_cast<unsigned long long>(p);
  }
  (*out) << "\n";
}

Result<BinnedScores> ReadBins(std::istringstream* ss, int num_bins) {
  BinnedScores bins;
  bins.counts.resize(static_cast<size_t>(num_bins));
  bins.positives.resize(static_cast<size_t>(num_bins));
  for (auto* vec : {&bins.counts, &bins.positives}) {
    for (uint64_t& v : *vec) {
      unsigned long long parsed = 0;
      if (!((*ss) >> parsed)) {
        return Status::InvalidArgument("truncated score-reference bins");
      }
      v = parsed;
    }
  }
  for (size_t b = 0; b < bins.counts.size(); ++b) {
    if (bins.positives[b] > bins.counts[b]) {
      return Status::InvalidArgument(
          "score-reference positives exceed bin count");
    }
  }
  return bins;
}

}  // namespace

Status ScoreReference::WriteTo(std::ostream* out) const {
  (*out) << "score_reference " << num_bins << " " << per_env.size() << " "
         << env_names.size() << "\n";
  if (empty()) {
    return out->good() ? Status::OK() : Status::IoError("write failed");
  }
  (*out) << "global";
  WriteBins(global, out);
  for (const auto& [env, bins] : per_env) {
    (*out) << "env " << env;
    WriteBins(bins, out);
  }
  // One name per line (province names may contain spaces).
  for (const std::string& name : env_names) (*out) << "name " << name << "\n";
  return out->good() ? Status::OK() : Status::IoError("write failed");
}

Result<ScoreReference> ScoreReference::Parse(std::istream* in) {
  ScoreReference ref;
  std::string line;
  // Skip blank lines; a clean end-of-stream means "no reference persisted"
  // (model files written before references existed).
  do {
    if (!std::getline(*in, line)) return ref;
  } while (Trim(line).empty());

  std::istringstream header(line);
  std::string tag;
  size_t num_envs = 0, num_names = 0;
  if (!(header >> tag >> ref.num_bins >> num_envs >> num_names) ||
      tag != "score_reference") {
    return Status::InvalidArgument("expected score_reference header");
  }
  if (ref.num_bins == 0) return ref;
  if (ref.num_bins < 2 || ref.num_bins > 10000) {
    return Status::InvalidArgument("bad score_reference bin count");
  }
  {
    if (!std::getline(*in, line)) {
      return Status::IoError("truncated score_reference");
    }
    std::istringstream ss(line);
    if (!(ss >> tag) || tag != "global") {
      return Status::InvalidArgument("expected global score histogram");
    }
    LIGHTMIRM_ASSIGN_OR_RETURN(ref.global, ReadBins(&ss, ref.num_bins));
  }
  for (size_t i = 0; i < num_envs; ++i) {
    if (!std::getline(*in, line)) {
      return Status::IoError("truncated score_reference");
    }
    std::istringstream ss(line);
    int env = 0;
    if (!(ss >> tag >> env) || tag != "env") {
      return Status::InvalidArgument("expected env score histogram");
    }
    LIGHTMIRM_ASSIGN_OR_RETURN(BinnedScores bins, ReadBins(&ss, ref.num_bins));
    ref.per_env.emplace(env, std::move(bins));
  }
  for (size_t i = 0; i < num_names; ++i) {
    if (!std::getline(*in, line)) {
      return Status::IoError("truncated score_reference names");
    }
    if (line.rfind("name ", 0) != 0) {
      return Status::InvalidArgument("expected score_reference name line");
    }
    ref.env_names.push_back(line.substr(5));
  }
  return ref;
}

Result<ScoreReference> BuildScoreReference(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& envs, int num_bins, size_t min_env_rows,
    std::vector<std::string> env_names) {
  if (num_bins < 2) return Status::InvalidArgument("num_bins must be >= 2");
  if (scores.empty()) return Status::InvalidArgument("no scores");
  if (labels.size() != scores.size()) {
    return Status::InvalidArgument("labels misaligned with scores");
  }
  if (!envs.empty() && envs.size() != scores.size()) {
    return Status::InvalidArgument("envs misaligned with scores");
  }
  ScoreReference ref;
  ref.num_bins = num_bins;
  ref.env_names = std::move(env_names);
  const size_t bins = static_cast<size_t>(num_bins);
  ref.global.counts.assign(bins, 0);
  ref.global.positives.assign(bins, 0);
  std::map<int, BinnedScores> per_env;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (labels[i] != 0 && labels[i] != 1) {
      return Status::InvalidArgument("labels must be 0 or 1");
    }
    const size_t b = static_cast<size_t>(ScoreBin(scores[i], num_bins));
    ref.global.counts[b] += 1;
    ref.global.positives[b] += static_cast<uint64_t>(labels[i]);
    if (!envs.empty()) {
      BinnedScores& env_bins = per_env[envs[i]];
      if (env_bins.counts.empty()) {
        env_bins.counts.assign(bins, 0);
        env_bins.positives.assign(bins, 0);
      }
      env_bins.counts[b] += 1;
      env_bins.positives[b] += static_cast<uint64_t>(labels[i]);
    }
  }
  for (auto& [env, env_bins] : per_env) {
    if (env_bins.Total() >= min_env_rows) {
      ref.per_env.emplace(env, std::move(env_bins));
    }
  }
  return ref;
}

Status SlidingWindow::SaveState(std::ostream* out) const {
  (*out) << "sliding_window " << num_bins_ << " " << capacity_ << " "
         << next_ << " " << static_cast<unsigned long long>(total_seen_)
         << " " << ring_.size() << "\n";
  (*out) << "ring";
  for (const Entry& e : ring_) {
    (*out) << " " << static_cast<unsigned>(e.qscore) << " "
           << static_cast<unsigned>(e.bin) << " "
           << static_cast<int>(e.label);
  }
  (*out) << "\n";
  const auto write_counts = [out](const char* tag,
                                  const std::vector<uint64_t>& v) {
    (*out) << tag;
    for (uint64_t c : v) (*out) << " " << static_cast<unsigned long long>(c);
    (*out) << "\n";
  };
  write_counts("counts", counts_);
  write_counts("labeled", labeled_);
  write_counts("positives", positives_);
  (*out) << "score_sums";
  for (double s : score_sums_) (*out) << " " << FormatG17(s);
  (*out) << "\n";
  (*out) << "labeled_totals "
         << static_cast<unsigned long long>(labeled_total_) << " "
         << static_cast<unsigned long long>(positive_total_) << "\n";
  return out->good() ? Status::OK() : Status::IoError("write failed");
}

Result<SlidingWindow> SlidingWindow::LoadState(std::istream* in) {
  std::string line;
  if (!std::getline(*in, line)) {
    return Status::IoError("truncated sliding_window state");
  }
  std::istringstream header(line);
  std::string tag;
  int num_bins = 0;
  size_t capacity = 0, next = 0, ring_size = 0;
  unsigned long long total_seen = 0;
  if (!(header >> tag >> num_bins >> capacity >> next >> total_seen >>
        ring_size) ||
      tag != "sliding_window") {
    return Status::InvalidArgument("expected sliding_window header");
  }
  if (num_bins < 2 || num_bins > kMaxBins) {
    return Status::InvalidArgument("bad sliding_window bin count");
  }
  if (capacity == 0 || ring_size > capacity || next >= capacity ||
      (ring_size < capacity && next != ring_size)) {
    return Status::InvalidArgument("inconsistent sliding_window ring shape");
  }
  // Reserves nothing: the ring grows as entries parse, and after the load
  // as the window fills.
  SlidingWindow window(num_bins, capacity, NoReserve{});
  window.next_ = next;
  window.total_seen_ = total_seen;
  if (!std::getline(*in, line)) {
    return Status::IoError("truncated sliding_window ring");
  }
  {
    std::istringstream ss(line);
    if (!(ss >> tag) || tag != "ring") {
      return Status::InvalidArgument("expected sliding_window ring line");
    }
    for (size_t i = 0; i < ring_size; ++i) {
      unsigned qscore = 0, bin = 0;
      int label = 0;
      if (!(ss >> qscore >> bin >> label)) {
        return Status::InvalidArgument("truncated sliding_window ring line");
      }
      if (qscore > 65535u || bin >= static_cast<unsigned>(num_bins) ||
          label < -1 || label > 1) {
        return Status::InvalidArgument("bad sliding_window ring entry");
      }
      window.ring_.push_back(Entry{static_cast<uint16_t>(qscore),
                                   static_cast<uint8_t>(bin),
                                   static_cast<int8_t>(label)});
    }
  }
  const auto read_counts = [&](const char* want, std::vector<uint64_t>* v) {
    if (!std::getline(*in, line)) {
      return Status::IoError("truncated sliding_window aggregates");
    }
    std::istringstream ss(line);
    if (!(ss >> tag) || tag != want) {
      return Status::InvalidArgument(
          StrFormat("expected sliding_window %s line", want));
    }
    for (uint64_t& c : *v) {
      unsigned long long parsed = 0;
      if (!(ss >> parsed)) {
        return Status::InvalidArgument(
            StrFormat("truncated sliding_window %s line", want));
      }
      c = parsed;
    }
    return Status::OK();
  };
  LIGHTMIRM_RETURN_NOT_OK(read_counts("counts", &window.counts_));
  LIGHTMIRM_RETURN_NOT_OK(read_counts("labeled", &window.labeled_));
  LIGHTMIRM_RETURN_NOT_OK(read_counts("positives", &window.positives_));
  {
    if (!std::getline(*in, line)) {
      return Status::IoError("truncated sliding_window score_sums");
    }
    std::istringstream ss(line);
    if (!(ss >> tag) || tag != "score_sums") {
      return Status::InvalidArgument("expected sliding_window score_sums");
    }
    for (double& s : window.score_sums_) {
      if (!(ss >> s)) {
        return Status::InvalidArgument(
            "truncated sliding_window score_sums line");
      }
    }
  }
  {
    if (!std::getline(*in, line)) {
      return Status::IoError("truncated sliding_window totals");
    }
    std::istringstream ss(line);
    unsigned long long labeled_total = 0, positive_total = 0;
    if (!(ss >> tag >> labeled_total >> positive_total) ||
        tag != "labeled_totals") {
      return Status::InvalidArgument("expected sliding_window totals line");
    }
    if (positive_total > labeled_total || labeled_total > ring_size) {
      return Status::InvalidArgument("inconsistent sliding_window totals");
    }
    window.labeled_total_ = labeled_total;
    window.positive_total_ = positive_total;
  }
  for (size_t b = 0; b < window.counts_.size(); ++b) {
    if (window.positives_[b] > window.labeled_[b] ||
        window.labeled_[b] > window.counts_[b]) {
      return Status::InvalidArgument("inconsistent sliding_window bins");
    }
  }
  return window;
}

SlidingWindow::SlidingWindow(int num_bins, size_t capacity)
    : SlidingWindow(num_bins, capacity, NoReserve{}) {
  ring_.reserve(capacity_);
}

SlidingWindow::SlidingWindow(int num_bins, size_t capacity, NoReserve)
    : num_bins_(std::clamp(num_bins, 2, kMaxBins)),
      capacity_(std::max<size_t>(1, capacity)),
      counts_(static_cast<size_t>(num_bins_), 0),
      labeled_(static_cast<size_t>(num_bins_), 0),
      positives_(static_cast<size_t>(num_bins_), 0),
      score_sums_(static_cast<size_t>(num_bins_), 0.0) {}

}  // namespace lightmirm::obs
