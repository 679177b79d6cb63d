// protocol/timer_epoch.hpp: a timer kind encoded from (base kind, epoch)
// decodes back to its base kind, matches its own epoch and not the next,
// and stays a positive int at every epoch, wrap included.
#include <gtest/gtest.h>

#include "protocol/discovery.hpp"
#include "protocol/pbft.hpp"
#include "protocol/timer_epoch.hpp"

namespace bftcup::protocol {
namespace {

TEST(TimerEpochTest, BaseKindAndEpochRoundTrip) {
  const std::uint64_t epochs[] = {0, 1, kTimerEpochMod - 1, kTimerEpochMod,
                                  std::uint64_t{1} << 40};
  for (const int base :
       {Discovery::kTimerKind, PbftInstance::kTimerKind, 0xff}) {
    for (const std::uint64_t epoch : epochs) {
      const int kind = encode_timer_kind(base, epoch);
      EXPECT_GT(kind, 0) << base << "@" << epoch;
      EXPECT_EQ(timer_base_kind(kind), base) << base << "@" << epoch;
      EXPECT_TRUE(timer_epoch_matches(kind, epoch)) << base << "@" << epoch;
      EXPECT_FALSE(timer_epoch_matches(kind, epoch + 1))
          << base << "@" << epoch;
    }
  }
  // Epochs wrap: the modulus itself encodes as epoch 0.
  EXPECT_EQ(encode_timer_kind(1, kTimerEpochMod), encode_timer_kind(1, 0));
}

}  // namespace
}  // namespace bftcup::protocol
