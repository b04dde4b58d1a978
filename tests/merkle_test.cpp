// Reply trees (crypto/merkle.hpp): every path of every tree shape folds to
// its root, and nothing else does.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "crypto/merkle.hpp"

namespace sintra::crypto::merkle {
namespace {

std::vector<Digest> make_leaves(std::uint32_t count) {
  std::vector<Digest> leaves;
  for (std::uint32_t i = 0; i < count; ++i) {
    leaves.push_back(leaf(bytes_of("reply " + std::to_string(i))));
  }
  return leaves;
}

/// Per level of a `count`-leaf tree: 0 = leaf `index` is promoted, 1 =
/// its sibling is on the right, 2 = on the left.
std::vector<int> shape(std::uint32_t index, std::uint32_t count) {
  std::vector<int> levels;
  for (std::uint64_t width = count, at = index; width > 1; width = (width + 1) / 2, at /= 2) {
    levels.push_back((at ^ 1) >= width ? 0 : 1 + static_cast<int>(at & 1));
  }
  return levels;
}

TEST(MerkleTest, EveryPathFoldsToTheRoot) {
  for (std::uint32_t count = 1; count <= 33; ++count) {
    const std::vector<Digest> leaves = make_leaves(count);
    const Tree tree(leaves);
    ASSERT_EQ(tree.count(), count);
    for (std::uint32_t index = 0; index < count; ++index) {
      const auto root = fold(leaves[index], index, count, tree.path(index));
      ASSERT_TRUE(root.has_value()) << count << "/" << index;
      EXPECT_EQ(*root, tree.root()) << count << "/" << index;
    }
  }
}

TEST(MerkleTest, OneLeafTreeIsItsLeaf) {
  const Digest only = leaf(bytes_of("alone"));
  const Tree tree({only});
  EXPECT_EQ(tree.root(), only);
  EXPECT_TRUE(tree.path(0).empty());
  EXPECT_EQ(fold(only, 0, 1, {}), std::optional<Digest>(only));
}

TEST(MerkleTest, UnpairedNodeIsPromotedNotDuplicated) {
  const std::vector<Digest> l = make_leaves(3);
  const Tree three(l);
  EXPECT_EQ(three.root(), node(node(l[0], l[1]), l[2]));
  // The duplicated-last-node construction gives [a,b,c] and [a,b,c,c] one
  // root; promotion keeps them apart.
  EXPECT_NE(three.root(), Tree(std::vector<Digest>{l[0], l[1], l[2], l[2]}).root());
  const std::vector<Digest> five = make_leaves(5);
  EXPECT_EQ(Tree(five).root(),
            node(node(node(five[0], five[1]), node(five[2], five[3])), five[4]));
}

TEST(MerkleTest, TamperedPathsAreRefused) {
  for (std::uint32_t count = 1; count <= 33; ++count) {
    const std::vector<Digest> leaves = make_leaves(count);
    const Tree tree(leaves);
    for (std::uint32_t index = 0; index < count; ++index) {
      const std::vector<Digest> path = tree.path(index);
      for (std::size_t e = 0; e < path.size(); ++e) {
        for (std::size_t bit = 0; bit < 8 * kSha256DigestSize; bit += 37) {
          std::vector<Digest> flipped = path;
          flipped[e][bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          EXPECT_NE(fold(leaves[index], index, count, flipped), tree.root())
              << count << "/" << index << " element " << e << " bit " << bit;
        }
      }
      // A wrong index never reaches the root.  A wrong count reaches it
      // only when it gives this leaf the same path shape (as 3 and 4 do
      // for leaf 0) — the residue that the signed root statement closes
      // by binding the count.
      for (std::uint32_t other = 0; other < count + 2; ++other) {
        if (other != index) {
          EXPECT_NE(fold(leaves[index], other, count, path), tree.root()) << count << "/" << index;
        }
      }
      for (std::uint32_t other = 0; other <= 34; ++other) {
        if (other != count && fold(leaves[index], index, other, path) == tree.root()) {
          EXPECT_EQ(shape(index, other), shape(index, count)) << count << "/" << index;
        }
      }
      // An extra or a missing element is refused outright.
      std::vector<Digest> longer = path;
      longer.push_back(tree.root());
      EXPECT_FALSE(fold(leaves[index], index, count, longer).has_value());
      if (!path.empty()) {
        std::vector<Digest> shorter(path.begin(), path.end() - 1);
        EXPECT_FALSE(fold(leaves[index], index, count, shorter).has_value());
      }
    }
  }
}

TEST(MerkleTest, DegenerateShapesAreRefused) {
  const Digest l = leaf(bytes_of("x"));
  EXPECT_FALSE(fold(l, 0, 0, {}).has_value());
  EXPECT_FALSE(fold(l, 1, 1, {}).has_value());
  EXPECT_FALSE(fold(l, 5, 5, {}).has_value());
  EXPECT_FALSE(fold(l, 0, 0xffffffffu, {}).has_value());
  EXPECT_FALSE(fold(l, 0xfffffffeu, 0xffffffffu, {}).has_value());
  EXPECT_THROW(Tree(std::vector<Digest>{}), ProtocolError);
}

TEST(MerkleTest, InteriorNodeIsNotALeaf) {
  // Domain separation: the hash of two children is a node, never a leaf,
  // so an interior node cannot be presented as a one-leaf tree's leaf nor
  // as a leaf one level up.
  const std::vector<Digest> leaves = make_leaves(4);
  const Tree tree(leaves);
  const Digest left = node(leaves[0], leaves[1]);
  Bytes children(leaves[0].begin(), leaves[0].end());
  children.insert(children.end(), leaves[1].begin(), leaves[1].end());
  EXPECT_NE(leaf(children), left);
  EXPECT_NE(fold(leaf(children), 0, 2, {node(leaves[2], leaves[3])}), tree.root());
  EXPECT_EQ(fold(left, 0, 2, {node(leaves[2], leaves[3])}), std::optional<Digest>(tree.root()))
      << "the node itself does sit one level up";
}

}  // namespace
}  // namespace sintra::crypto::merkle
