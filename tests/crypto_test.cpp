#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"

namespace bftcup::crypto {
namespace {

Bytes bytes_of(std::string_view s) {
  return to_bytes(s);
}

std::string hex_digest(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(
      hex_digest(sha256(bytes_of(""))),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(
      hex_digest(sha256(bytes_of("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      hex_digest(sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(
      hex_digest(h.finalize()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes data = bytes_of("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(h.finalize(), sha256(data));
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 'a' x n around both padding boundaries: at 55 (and 119) bytes the 0x80
  // byte and the length share the last block; from 56 (and 120) on, the
  // length spills into a block of its own; 63 and 64 leave the 0x80 byte
  // the last byte of a block or the first of a fresh one. Expected values
  // from Python's hashlib.
  const struct {
    std::size_t n;
    const char* digest;
  } vectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(hex_digest(sha256(Bytes(v.n, 'a'))), v.digest) << v.n;
  }
}

// RFC 4231 test case 1 and 2.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(
      hex_digest(hmac_sha256(key, bytes_of("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      hex_digest(hmac_sha256(bytes_of("Jefe"),
                             bytes_of("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  const Bytes long_key(131, 0xaa);  // RFC 4231 case 6 key shape
  const auto d = hmac_sha256(long_key, bytes_of("msg"));
  EXPECT_EQ(d.size(), 32U);
}

TEST(KeyRegistryTest, DeterministicSecrets) {
  KeyRegistry a(99), b(99);
  EXPECT_EQ(a.secret_for(ProcessId(1)), b.secret_for(ProcessId(1)));
  EXPECT_NE(a.secret_for(ProcessId(1)), a.secret_for(ProcessId(2)));
}

TEST(KeyRegistryTest, SignVerifyRoundTrip) {
  KeyRegistry reg(7);
  const Bytes message = bytes_of("hello");
  const Signature sig = reg.sign_as(ProcessId(3), message);
  EXPECT_TRUE(reg.verify(ProcessId(3), message, sig));
}

TEST(KeyRegistryTest, RejectsWrongSigner) {
  KeyRegistry reg(7);
  const Bytes message = bytes_of("hello");
  const Signature sig = reg.sign_as(ProcessId(3), message);
  EXPECT_FALSE(reg.verify(ProcessId(4), message, sig));
}

TEST(KeyRegistryTest, RejectsTamperedMessage) {
  KeyRegistry reg(7);
  const Signature sig = reg.sign_as(ProcessId(3), bytes_of("hello"));
  EXPECT_FALSE(reg.verify(ProcessId(3), bytes_of("hellO"), sig));
}

TEST(KeyRegistryTest, RejectsTamperedSignature) {
  KeyRegistry reg(7);
  const Bytes message = bytes_of("hello");
  Signature sig = reg.sign_as(ProcessId(3), message);
  sig.bytes[0] ^= 0x01;
  EXPECT_FALSE(reg.verify(ProcessId(3), message, sig));
}

TEST(SignerTest, SignsOnlyAsItself) {
  KeyRegistry reg(5);
  const Signer signer(ProcessId(10), &reg);
  const Verifier verifier(&reg);
  const Bytes message = bytes_of("payload");
  const Signature sig = signer.sign(message);
  EXPECT_TRUE(verifier.verify(ProcessId(10), message, sig));
  EXPECT_FALSE(verifier.verify(ProcessId(11), message, sig));
}

TEST(SignerTest, DifferentRegistrySeedsProduceDifferentSignatures) {
  KeyRegistry r1(1), r2(2);
  const Bytes message = bytes_of("x");
  EXPECT_NE(r1.sign_as(ProcessId(1), message).bytes,
            r2.sign_as(ProcessId(1), message).bytes);
}

}  // namespace
}  // namespace bftcup::crypto
