// cup_lint fixture: the slot-addressed twin of r1_completion_order.bad.cpp.
// Results land in pre-sized slots addressed by task index, and the
// reduction walks the slots in index order — byte-identical to a serial
// loop at any worker count, like BatchRunner's per-run result slots.
#include <cstddef>
#include <cstdint>
#include <vector>

struct Candidate {
  std::uint64_t id = 0;
};

struct SlotLog {
  // One slot per task index, pre-sized before the dispatch; workers write
  // only their own slots.
  std::vector<std::vector<Candidate>> slots;
};

std::vector<Candidate> reduce_results(const SlotLog& log) {
  std::vector<Candidate> digest_feed;
  for (const auto& produced : log.slots) {
    digest_feed.insert(digest_feed.end(), produced.begin(), produced.end());
  }
  return digest_feed;
}
