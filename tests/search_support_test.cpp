// FingerprintSet (sim/search_support.h): the open-addressing set that the
// fuzzer and the adversary search collect event fingerprints in. Pins set
// semantics against std::set, the key-0 flag, growth and clear().
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "rstp/common/rng.h"
#include "rstp/sim/search_support.h"

namespace rstp::sim {
namespace {

TEST(FingerprintSet, InsertIsTrueExactlyOncePerValue) {
  FingerprintSet set;
  for (std::uint64_t v = 1; v <= 100; ++v) EXPECT_TRUE(set.insert(v * 977));
  for (std::uint64_t v = 1; v <= 100; ++v) EXPECT_FALSE(set.insert(v * 977));
  EXPECT_EQ(set.size(), 100u);
}

TEST(FingerprintSet, ZeroIsAMemberLikeAnyOther) {
  FingerprintSet set;
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.insert(5));
  EXPECT_EQ(set.sorted(), (std::vector<std::uint64_t>{0, 5}));
}

TEST(FingerprintSet, MembersSurviveRepeatedGrowth) {
  // The table starts at 64 slots and doubles at half load; 1000 members
  // force at least five doublings. Values with equal low or high bits
  // collide under a naive hash and must still all be found.
  FingerprintSet set;
  std::vector<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 1000; ++i) values.push_back(i << 40 | (i & 1));
  for (const std::uint64_t v : values) ASSERT_TRUE(set.insert(v));
  EXPECT_EQ(set.size(), values.size());
  for (const std::uint64_t v : values) EXPECT_FALSE(set.insert(v));
  EXPECT_EQ(set.size(), values.size());
}

TEST(FingerprintSet, SortedMatchesStdSetOnSeededDraws) {
  // 10k draws from 5k values: about half are duplicates.
  Rng rng{1234};
  FingerprintSet set;
  std::set<std::uint64_t> reference;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.next_below(5'000) * 0x100000001B3ULL;
    EXPECT_EQ(set.insert(v), reference.insert(v).second);
  }
  EXPECT_LT(reference.size(), 7'000u);
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_EQ(set.sorted(), std::vector<std::uint64_t>(reference.begin(), reference.end()));
}

TEST(FingerprintSet, ForEachVisitsEachMemberOnce) {
  FingerprintSet set;
  std::multiset<std::uint64_t> want;
  for (std::uint64_t v = 0; v < 300; ++v) {
    set.insert(v * v);
    want.insert(v * v);
  }
  std::multiset<std::uint64_t> visited;
  set.for_each([&](std::uint64_t v) { visited.insert(v); });
  EXPECT_EQ(visited, want);
}

TEST(FingerprintSet, ClearEmptiesAndTheSetStaysUsable) {
  FingerprintSet set;
  for (std::uint64_t v = 0; v < 500; ++v) set.insert(v);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.sorted().empty());
  int visits = 0;
  set.for_each([&](std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0);
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_EQ(set.sorted(), (std::vector<std::uint64_t>{0, 42}));
}

}  // namespace
}  // namespace rstp::sim
