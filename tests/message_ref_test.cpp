#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

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

// The handle counts its holders itself. Each case below watches a payload
// through the one signed PD its message holds: the PD lives exactly as long
// as the payload, so `watch.expired()` says whether the payload was freed.
// Built with the asan preset, LeakSanitizer and the double-free check back
// these observations up.
using Watch = std::weak_ptr<const SignedPd>;

MessageRef watched(Watch& watch, Value value = 42) {
  Message m = sample();
  m.value = value;
  watch = m.pds.front();
  return MessageRef::make(std::move(m));
}

TEST(MessageRefTest, CopyConstructionCountsTheNewHolder) {
  Watch watch;
  std::optional<MessageRef> ref(watched(watch));
  const MessageRef copy(*ref);
  EXPECT_EQ(&*copy, &**ref);
  ref.reset();
  EXPECT_FALSE(watch.expired());  // the copy still holds the payload
  EXPECT_EQ(copy->value, 42U);
}

TEST(MessageRefTest, MoveConstructionLeavesTheSourceNull) {
  Watch watch;
  MessageRef ref = watched(watch);
  const Message* const payload = &*ref;
  const MessageRef moved(std::move(ref));
  EXPECT_FALSE(static_cast<bool>(ref));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&*moved, payload);
  EXPECT_FALSE(watch.expired());
}

TEST(MessageRefTest, CopyAssignmentOverALiveHandle) {
  Watch watch_a;
  Watch watch_b;
  MessageRef a = watched(watch_a, 1);
  MessageRef b = watched(watch_b, 2);
  b = a;
  EXPECT_TRUE(watch_b.expired());  // b's old payload had no other holder
  EXPECT_EQ(&*b, &*a);
  a = MessageRef();
  EXPECT_FALSE(watch_a.expired());  // b still holds it
  EXPECT_EQ(b->value, 1U);
  b = MessageRef();
  EXPECT_TRUE(watch_a.expired());
}

TEST(MessageRefTest, MoveAssignmentOverALiveHandle) {
  Watch watch_a;
  Watch watch_b;
  MessageRef a = watched(watch_a, 1);
  MessageRef b = watched(watch_b, 2);
  b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(watch_b.expired());
  EXPECT_FALSE(watch_a.expired());
  EXPECT_EQ(b->value, 1U);
}

TEST(MessageRefTest, SelfAssignmentKeepsThePayload) {
  Watch watch;
  MessageRef ref = watched(watch);
  const Message* const payload = &*ref;
  // Through an alias, as a container or a generic algorithm would do it.
  MessageRef& alias = ref;
  ref = alias;
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(&*ref, payload);
  ref = std::move(alias);
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(&*ref, payload);
  EXPECT_EQ(ref->value, 42U);
}

TEST(MessageRefTest, CopiesShareOnePayloadUntilTheLastGoes) {
  Watch watch;
  std::vector<MessageRef> copies(1, watched(watch));
  for (int i = 0; i < 99; ++i) copies.push_back(copies.front());
  for (const MessageRef& copy : copies) EXPECT_EQ(&*copy, &*copies.front());
  EXPECT_EQ(watch.use_count(), 1);  // one payload, one PD, no deep copy
  copies.resize(1);
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(copies.front()->value, 42U);
}

TEST(MessageRefTest, ReleasingTheLastHandleFreesThePayload) {
  Watch watch;
  {
    const MessageRef ref = watched(watch);
    const MessageRef copy = ref;
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace bftcup::msg
