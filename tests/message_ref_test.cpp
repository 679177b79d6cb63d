#include <gtest/gtest.h>

#include "msg/message_ref.hpp"

namespace bftcup::msg {
namespace {

Message sample() {
  Message m;
  m.type = MsgType::kSetPds;
  SignedPd spd;
  spd.owner = ProcessId(4);
  spd.pd = {ProcessId(1), ProcessId(2), ProcessId(3)};
  m.pds.push_back(std::make_shared<const SignedPd>(spd));
  m.value = 42;
  m.path = {ProcessId(7), ProcessId(8)};
  return m;
}

TEST(MessageRefTest, CachesTheCanonicalEncodedSize) {
  const Message m = sample();
  const std::size_t expected = m.encoded_size();
  const MessageRef ref = MessageRef::make(m);
  EXPECT_EQ(ref.encoded_size(), expected);
  EXPECT_EQ(ref->encoded_size(), expected);  // payload unchanged by caching
}

TEST(MessageRefTest, SharesOnePayloadAcrossCopies) {
  const MessageRef ref = MessageRef::make(sample());
  const MessageRef copy = ref;
  EXPECT_EQ(&*ref, &*copy);  // same payload object, no deep copy
  EXPECT_EQ(copy->value, 42U);
  EXPECT_EQ(copy->pds.size(), 1U);
}

TEST(MessageRefTest, DefaultIsNull) {
  MessageRef ref;
  EXPECT_FALSE(static_cast<bool>(ref));
  EXPECT_TRUE(static_cast<bool>(MessageRef::make(Message{})));
}

}  // namespace
}  // namespace bftcup::msg
