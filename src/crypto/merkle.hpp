// Merkle trees over reply statements (app/replica.hpp).
//
// A replica signs one root per atomic-broadcast round instead of one
// statement per reply; each client checks its own reply against that root
// through an inclusion path.
//
//   leaf = H("sintra/svc/leaf", statement)
//   node = H("sintra/svc/node", left ‖ right)
//
// A level with an odd number of nodes promotes its last node unchanged to
// the level above.  It is never paired with a copy of itself, so two
// different leaf lists cannot share a root the way a duplicated last node
// allows (CVE-2012-2459).  A path lists the siblings from the leaf upward
// and has no entry for a level where the node was promoted; the leaf
// count fixes where those levels are, so fold() needs it.
#pragma once

#include <optional>
#include <vector>

#include "crypto/sha256.hpp"

namespace sintra::crypto::merkle {

Digest leaf(BytesView statement);
Digest node(const Digest& left, const Digest& right);

class Tree {
 public:
  /// Requires at least one leaf.
  explicit Tree(std::vector<Digest> leaves);

  [[nodiscard]] std::uint32_t count() const {
    return static_cast<std::uint32_t>(levels_.front().size());
  }
  [[nodiscard]] const Digest& root() const { return levels_.back().front(); }
  /// Siblings of leaf `index`, bottom-up (index < count()).
  [[nodiscard]] std::vector<Digest> path(std::uint32_t index) const;

 private:
  std::vector<std::vector<Digest>> levels_;  ///< leaves first, {root} last
};

/// The root that `leaf` at `index` of a `count`-leaf tree reaches through
/// `path`; nullopt if count == 0, index >= count, or the path is not
/// consumed exactly.
std::optional<Digest> fold(const Digest& leaf, std::uint32_t index, std::uint32_t count,
                           const std::vector<Digest>& path);

}  // namespace sintra::crypto::merkle
