// Text (de)serialization of a trained Booster, so the feature-extraction
// model can be persisted and shipped alongside the LR head.
#pragma once

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "gbdt/booster.h"

namespace lightmirm::gbdt {

/// Writes the booster in a line-oriented text format.
Status SaveBooster(const Booster& booster, std::ostream* out);
Status SaveBoosterToFile(const Booster& booster, const std::string& path);

/// Parses a booster previously written by SaveBooster. Every tree must
/// pass ValidateTree (gbdt/tree.h); InvalidArgument otherwise.
Result<Booster> LoadBooster(std::istream* in);
Result<Booster> LoadBoosterFromFile(const std::string& path);

}  // namespace lightmirm::gbdt
