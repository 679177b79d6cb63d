// cup_lint fixture: R4 must fire — reinterpret_cast outside the audited
// codec/ allowlist — and M1 for the empty justification.
// Not compiled.
// cup-lint-expect: R4
// cup-lint-expect: M1
#include <cstdint>

std::uint32_t first_word(const unsigned char* frame) {
  // Unaligned, aliasing-violating load: UB the optimizer may exploit.
  return *reinterpret_cast<const std::uint32_t*>(frame);
}

std::uint64_t second_word(const unsigned char* frame) {
  // A marker with no justification does not allowlist anything.
  // cup-lint: cast-ok()
  return *reinterpret_cast<const std::uint64_t*>(frame + 4);
}
