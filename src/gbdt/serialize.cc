#include "gbdt/serialize.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace lightmirm::gbdt {
namespace {

constexpr const char* kMagic = "lightmirm-booster-v1";

}  // namespace

Status SaveBooster(const Booster& booster, std::ostream* out) {
  (*out) << kMagic << "\n";
  (*out) << "base_score " << FormatG17(booster.base_score()) << "\n";
  (*out) << StrFormat("num_trees %zu\n", booster.trees().size());
  for (const Tree& tree : booster.trees()) {
    (*out) << StrFormat("tree %zu\n", tree.num_nodes());
    for (const TreeNode& n : tree.nodes()) {
      if (n.is_leaf) {
        (*out) << "leaf " << n.leaf_ordinal << " "
               << FormatG17(n.leaf_value) << "\n";
      } else {
        (*out) << "split " << n.feature << " " << FormatG17(n.threshold)
               << " " << n.left << " " << n.right << "\n";
      }
    }
  }
  if (!(*out)) return Status::IoError("failed writing booster");
  return Status::OK();
}

Status SaveBoosterToFile(const Booster& booster, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  return SaveBooster(booster, &out);
}

Result<Booster> LoadBooster(std::istream* in) {
  std::string line;
  if (!std::getline(*in, line) || Trim(line) != kMagic) {
    return Status::InvalidArgument("bad booster header");
  }
  double base_score = 0.0;
  size_t num_trees = 0;
  {
    if (!std::getline(*in, line)) return Status::IoError("truncated booster");
    std::istringstream ss(line);
    std::string tag;
    if (!(ss >> tag >> base_score) || tag != "base_score") {
      return Status::InvalidArgument("expected base_score line");
    }
  }
  {
    if (!std::getline(*in, line)) return Status::IoError("truncated booster");
    std::istringstream ss(line);
    std::string tag;
    if (!(ss >> tag >> num_trees) || tag != "num_trees") {
      return Status::InvalidArgument("expected num_trees line");
    }
  }
  // Both vectors grow as lines parse: the declared counts are untrusted,
  // and a file can only hold as many trees and nodes as it has lines.
  std::vector<Tree> trees;
  for (size_t t = 0; t < num_trees; ++t) {
    if (!std::getline(*in, line)) return Status::IoError("truncated booster");
    std::istringstream ss(line);
    std::string tag;
    size_t num_nodes = 0;
    if (!(ss >> tag >> num_nodes) || tag != "tree") {
      return Status::InvalidArgument("expected tree line");
    }
    std::vector<TreeNode> nodes;
    for (size_t i = 0; i < num_nodes; ++i) {
      if (!std::getline(*in, line)) {
        return Status::IoError("truncated booster");
      }
      std::istringstream ns(line);
      std::string kind;
      ns >> kind;
      TreeNode& n = nodes.emplace_back();
      if (kind == "leaf") {
        n.is_leaf = true;
        if (!(ns >> n.leaf_ordinal >> n.leaf_value)) {
          return Status::InvalidArgument("malformed leaf line: " + line);
        }
      } else if (kind == "split") {
        n.is_leaf = false;
        if (!(ns >> n.feature >> n.threshold >> n.left >> n.right)) {
          return Status::InvalidArgument("malformed split line: " + line);
        }
      } else {
        return Status::InvalidArgument("unknown node kind: " + line);
      }
    }
    trees.emplace_back(std::move(nodes));
    LIGHTMIRM_RETURN_NOT_OK(ValidateTree(trees.back(), t).status());
  }
  return Booster(base_score, std::move(trees));
}

Result<Booster> LoadBoosterFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return LoadBooster(&in);
}

}  // namespace lightmirm::gbdt
