#include <gtest/gtest.h>

#include "codec/encoder.hpp"
#include "msg/message.hpp"
#include "msg/wire.hpp"

namespace bftcup::msg {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(MessageTest, TypeNamesCoverAllVariants) {
  for (auto t : {MsgType::kGetPds, MsgType::kSetPds, MsgType::kGetDecidedVal,
                 MsgType::kDecidedVal, MsgType::kPbftPrePrepare,
                 MsgType::kPbftPrepare, MsgType::kPbftCommit,
                 MsgType::kPbftViewChange, MsgType::kPbftNewView,
                 MsgType::kPbftDecide, MsgType::kRrbForward}) {
    EXPECT_STRNE(to_string(t), "?");
  }
}

TEST(MessageTest, SignedPdPayloadIsCanonical) {
  const Bytes a = SignedPd::payload(p(1), IdSet{p(2), p(3)});
  const Bytes b = SignedPd::payload(p(1), IdSet{p(3), p(2)});
  EXPECT_EQ(a, b);  // FlatSet ordering makes the encoding order-free
}

TEST(MessageTest, SignedPdPayloadBindsOwnerAndContents) {
  const Bytes base = SignedPd::payload(p(1), IdSet{p(2)});
  EXPECT_NE(base, SignedPd::payload(p(2), IdSet{p(2)}));
  EXPECT_NE(base, SignedPd::payload(p(1), IdSet{p(3)}));
}

TEST(MessageTest, PbftPayloadDomainSeparatedFromPd) {
  // A signature over a PD must never validate as a PBFT phase message.
  const Bytes pd = SignedPd::payload(p(1), IdSet{});
  const Bytes pbft = pbft_payload(MsgType::kPbftPrepare, 0, 0);
  EXPECT_NE(pd, pbft);
}

TEST(MessageTest, PbftPayloadBindsPhaseViewValue) {
  const Bytes base = pbft_payload(MsgType::kPbftPrepare, 3, 42);
  EXPECT_NE(base, pbft_payload(MsgType::kPbftCommit, 3, 42));
  EXPECT_NE(base, pbft_payload(MsgType::kPbftPrepare, 4, 42));
  EXPECT_NE(base, pbft_payload(MsgType::kPbftPrepare, 3, 43));
}

TEST(MessageTest, EncodedSizeGrowsWithContent) {
  Message small;
  small.type = MsgType::kGetPds;
  Message big;
  big.type = MsgType::kSetPds;
  for (std::uint64_t i = 0; i < 10; ++i) {
    SignedPd spd;
    spd.owner = p(i);
    spd.pd = IdSet{p(i + 1), p(i + 2), p(i + 3)};
    big.pds.push_back(std::make_shared<const SignedPd>(spd));
  }
  EXPECT_GT(big.encoded_size(), small.encoded_size());
}

TEST(MessageTest, EncodedSizeCountsCertificates) {
  Message m;
  m.type = MsgType::kPbftViewChange;
  const std::size_t bare = m.encoded_size();
  QuorumCert cert;
  cert.view = 1;
  cert.value = 9;
  cert.shares.resize(4);
  m.cert = cert;
  EXPECT_GT(m.encoded_size(), bare + 4 * 64);  // four 64-byte signatures
}

TEST(MessageTest, EncodedSizeCountsRrbPath) {
  Message m;
  m.type = MsgType::kRrbForward;
  m.origin = p(1);
  m.origin_pd = IdSet{p(2)};
  const std::size_t bare = m.encoded_size();
  m.path = {p(3), p(4), p(5)};
  EXPECT_GT(m.encoded_size(), bare);
}

/// The bytes_sent metric's own layout, written out independently of
/// encode_frame: the frame without its cert-presence byte. The golden
/// digests hash bytes_sent, so this layout is frozen.
std::size_t metric_layout_size(const Message& m) {
  const auto put_sig = [](codec::Encoder& enc, const crypto::Signature& sig) {
    enc.put_bytes(BytesView(sig.bytes.data(), sig.bytes.size()));
  };
  codec::Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(m.type));
  enc.put_varint(m.pds.size());
  for (const SignedPdRef& spd : m.pds) {
    enc.put_id(spd->owner);
    enc.put_id_set(spd->pd);
    put_sig(enc, spd->sig);
  }
  enc.put_u64(m.value);
  enc.put_u32(m.view);
  put_sig(enc, m.sig);
  if (m.cert) {
    enc.put_u32(m.cert->view);
    enc.put_u64(m.cert->value);
    enc.put_varint(m.cert->shares.size());
    for (const SigShare& share : m.cert->shares) {
      enc.put_id(share.signer);
      put_sig(enc, share.sig);
    }
  }
  enc.put_id(m.origin);
  enc.put_id_set(m.origin_pd);
  enc.put_varint(m.path.size());
  for (ProcessId id : m.path) enc.put_id(id);
  return enc.bytes().size();
}

TEST(MessageTest, EncodedSizeIsTheFrameMinusTheCertFlag) {
  for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
    for (const bool with_pds : {false, true}) {
      for (const bool with_cert : {false, true}) {
        for (const bool with_path : {false, true}) {
          Message m;
          m.type = static_cast<MsgType>(t);
          m.value = 300 + t;
          m.view = static_cast<std::uint32_t>(t);
          m.origin = p(7);
          // The widest id takes a 10-byte varint.
          m.origin_pd = IdSet{p(8), p(9), p(~std::uint64_t{0})};
          if (with_pds) {
            for (std::uint64_t i = 1; i <= 3; ++i) {
              SignedPd spd;
              spd.owner = p(i);
              spd.pd = IdSet{p(i + 1), p(i + 200)};
              m.pds.push_back(std::make_shared<const SignedPd>(spd));
            }
          }
          if (with_cert) {
            QuorumCert cert;
            cert.view = 2;
            cert.value = 9;
            cert.shares.resize(3);
            for (std::size_t i = 0; i < cert.shares.size(); ++i) {
              cert.shares[i].signer = p(i + 1);
            }
            m.cert = cert;
          }
          if (with_path) m.path = {p(3), p(4), p(500)};
          const std::string label =
              std::string(to_string(m.type)) + " pds=" +
              std::to_string(with_pds) + " cert=" +
              std::to_string(with_cert) + " path=" + std::to_string(with_path);
          EXPECT_EQ(frame_size(m), encode_frame(m).size()) << label;
          EXPECT_EQ(m.encoded_size(), encode_frame(m).size() - 1) << label;
          EXPECT_EQ(m.encoded_size(), metric_layout_size(m)) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bftcup::msg
