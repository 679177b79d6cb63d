#include "common/ids.hpp"

#include <ostream>

namespace bftcup {

std::ostream& operator<<(std::ostream& os, ProcessId id) {
  return os << 'p' << id.raw();
}

}  // namespace bftcup
