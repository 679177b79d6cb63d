// Regression tests for the partial-synchrony clamp (paper §II-A): a message
// sent at time t is delivered by max(t, GST) + δ, never before t + 1.
#include <gtest/gtest.h>

#include "sim/network.hpp"

namespace bftcup::sim {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(SynchronyCapTest, SentExactlyAtGstIsPostGst) {
  // The boundary message is a post-GST message: its cap is GST + δ, not
  // GST + δ plus pre-GST slack.
  NetConfig cfg;
  cfg.gst = 1'000;
  cfg.delta = 10;
  EXPECT_EQ(synchrony_cap(1'000, cfg), 1'010);
  // One tick earlier is still capped at GST + δ...
  EXPECT_EQ(synchrony_cap(999, cfg), 1'010);
  // ...one tick later moves the cap with the send time.
  EXPECT_EQ(synchrony_cap(1'001, cfg), 1'011);
}

TEST(SynchronyCapTest, CapNeverUndercutsTheOneTickFloor) {
  NetConfig cfg;
  cfg.gst = 0;
  cfg.delta = 0;  // over-constrained: the floor beats δ
  EXPECT_EQ(synchrony_cap(100, cfg), 101);
  // With δ >= 1 the cap is the classic max(t, GST) + δ.
  cfg.delta = 5;
  EXPECT_EQ(synchrony_cap(100, cfg), 105);
}

TEST(SynchronyCapTest, SaturatesNearTheTimeLimit) {
  NetConfig cfg;
  cfg.gst = kSimTimeMax - 5;
  cfg.delta = 100;
  EXPECT_EQ(synchrony_cap(0, cfg), kSimTimeMax);
  // The floor saturates too.
  cfg.gst = 0;
  cfg.delta = 0;
  EXPECT_EQ(synchrony_cap(kSimTimeMax, cfg), kSimTimeMax);
}

TEST(RandomDelayPolicyTest, SentExactlyAtGstDeliversWithinDelta) {
  NetConfig cfg;
  cfg.gst = 500;
  cfg.delta = 10;
  Rng rng(11);
  RandomDelayPolicy policy;
  for (int i = 0; i < 300; ++i) {
    const SimTime t = policy.delivery_time(p(1), p(2), 500, rng, cfg);
    EXPECT_GT(t, 500);
    EXPECT_LE(t, 510);
  }
}

TEST(RandomDelayPolicyTest, PreGstDrawStaysInWindow) {
  NetConfig cfg;
  cfg.gst = 1'000;
  cfg.delta = 5;
  Rng rng(7);
  RandomDelayPolicy policy;
  for (int i = 0; i < 300; ++i) {
    const SimTime t = policy.delivery_time(p(1), p(2), 100, rng, cfg);
    EXPECT_GE(t, 101);    // never before the one-tick floor
    EXPECT_LE(t, 1'005);  // never after max(t, GST) + δ
  }
}

TEST(WrappedPolicyTest, StretchClampKeepsTheWindow) {
  // The stretch policies clamp to synchrony_cap: a release time already
  // past leaves the inner draw in [t + 1, t + δ].
  NetConfig cfg;
  cfg.gst = 0;
  cfg.delta = 5;
  Rng rng(3);
  SlowSenderPolicy slow(std::make_unique<RandomDelayPolicy>(), IdSet{p(9)},
                        /*release_at=*/2);
  GroupStretchPolicy stretch(std::make_unique<RandomDelayPolicy>(),
                             IdSet{p(1)}, IdSet{p(2)}, /*release_at=*/2);
  for (int i = 0; i < 100; ++i) {
    const SimTime slowed = slow.delivery_time(p(9), p(1), 100, rng, cfg);
    EXPECT_GE(slowed, 101);
    EXPECT_LE(slowed, 105);
    const SimTime stretched = stretch.delivery_time(p(1), p(2), 100, rng, cfg);
    EXPECT_GE(stretched, 101);
    EXPECT_LE(stretched, 105);
  }
}

}  // namespace
}  // namespace bftcup::sim
