#include "crypto/merkle.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "common/assert.hpp"

namespace sintra::crypto::merkle {

Digest leaf(BytesView statement) { return hash_domain("sintra/svc/leaf", statement); }

Digest node(const Digest& left, const Digest& right) {
  std::array<std::uint8_t, 2 * kSha256DigestSize> both;
  std::copy(left.begin(), left.end(), both.begin());
  std::copy(right.begin(), right.end(), both.begin() + kSha256DigestSize);
  return hash_domain("sintra/svc/node", BytesView(both.data(), both.size()));
}

Tree::Tree(std::vector<Digest> leaves) {
  SINTRA_REQUIRE(!leaves.empty() && leaves.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "merkle: leaf count out of range");
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const std::vector<Digest>& below = levels_.back();
    std::vector<Digest> above;
    above.reserve((below.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < below.size(); i += 2) above.push_back(node(below[i], below[i + 1]));
    if (below.size() % 2 == 1) above.push_back(below.back());  // promoted, not duplicated
    levels_.push_back(std::move(above));
  }
}

std::vector<Digest> Tree::path(std::uint32_t index) const {
  SINTRA_REQUIRE(index < count(), "merkle: leaf index out of range");
  std::vector<Digest> siblings;
  std::size_t at = index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level, at /= 2) {
    const std::size_t sibling = at ^ 1;
    if (sibling < levels_[level].size()) siblings.push_back(levels_[level][sibling]);
  }
  return siblings;
}

std::optional<Digest> fold(const Digest& leaf, std::uint32_t index, std::uint32_t count,
                           const std::vector<Digest>& path) {
  if (count == 0 || index >= count) return std::nullopt;
  Digest acc = leaf;
  std::size_t used = 0;
  std::uint64_t at = index;
  for (std::uint64_t width = count; width > 1; width = (width + 1) / 2, at /= 2) {
    if ((at ^ 1) >= width) continue;  // promoted: no sibling at this level
    if (used == path.size()) return std::nullopt;
    acc = (at & 1) != 0 ? node(path[used], acc) : node(acc, path[used]);
    ++used;
  }
  if (used != path.size()) return std::nullopt;
  return acc;
}

}  // namespace sintra::crypto::merkle
