#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "graph/figures.hpp"
#include "protocol/eval_cache.hpp"
#include "protocol/knowledge_view.hpp"

namespace bftcup::protocol {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(KnowledgeViewTest, InitialStateMatchesAlgorithmOne) {
  KnowledgeView view(p(1), IdSet{p(2), p(3)});
  EXPECT_EQ(view.known(), (IdSet{p(1), p(2), p(3)}));
  EXPECT_EQ(view.received(), (IdSet{p(1)}));
  ASSERT_NE(view.pd_of(p(1)), nullptr);
  EXPECT_EQ(*view.pd_of(p(1)), (IdSet{p(2), p(3)}));
  EXPECT_EQ(view.pd_of(p(2)), nullptr);
}

TEST(KnowledgeViewTest, AddPdExpandsKnown) {
  KnowledgeView view(p(1), IdSet{p(2)});
  EXPECT_TRUE(view.add_pd(p(2), IdSet{p(3), p(4)}));
  EXPECT_TRUE(view.known().contains(p(3)));
  EXPECT_TRUE(view.known().contains(p(4)));
  EXPECT_TRUE(view.received().contains(p(2)));
}

TEST(KnowledgeViewTest, FirstPdWinsAgainstEquivocation) {
  KnowledgeView view(p(1), IdSet{});
  EXPECT_TRUE(view.add_pd(p(2), IdSet{p(3)}));
  // A second, different "PD_2" must not replace the first.
  view.add_pd(p(2), IdSet{p(4)});
  EXPECT_EQ(*view.pd_of(p(2)), (IdSet{p(3)}));
}

TEST(KnowledgeViewTest, AddPdIdempotent) {
  KnowledgeView view(p(1), IdSet{});
  EXPECT_TRUE(view.add_pd(p(2), IdSet{p(3)}));
  EXPECT_FALSE(view.add_pd(p(2), IdSet{p(3)}));
}

TEST(KnowledgeViewTest, KnowledgeGraphOnlyUsesReceivedPds) {
  // 2 is known through PD_1 but its own PD was never received.
  KnowledgeView view(p(1), IdSet{p(2)});
  const graph::Digraph k = view.knowledge_graph(view.known());
  EXPECT_TRUE(k.has_edge(p(1), p(2)));
  EXPECT_TRUE(k.has_vertex(p(2)));
  EXPECT_TRUE(k.out_neighbors(p(2)).empty());  // PD_2 not received
}

TEST(KnowledgeViewTest, KnowledgeGraphKeepsOnlyTheGivenVertices) {
  KnowledgeView view(p(1), IdSet{p(2), p(3)});
  view.add_pd(p(2), IdSet{p(1), p(3)});
  view.add_pd(p(3), IdSet{p(4)});
  // K[{1,2}]: the edges into 3 and 4 leave the kept set and are dropped.
  const graph::Digraph k = view.knowledge_graph(IdSet{p(1), p(2)});
  EXPECT_EQ(k.vertices(), (IdSet{p(1), p(2)}));
  EXPECT_EQ(k.edge_count(), 2U);
  EXPECT_TRUE(k.has_edge(p(1), p(2)));
  EXPECT_TRUE(k.has_edge(p(2), p(1)));
  // K[S_received] is K with the unreceived vertices removed.
  EXPECT_EQ(view.knowledge_graph(view.received()),
            view.knowledge_graph(view.known()).induced(view.received()));
}

TEST(KnowledgeViewTest, OmniscientMatchesGraph) {
  const auto inst = graph::figures::fig1b();
  const KnowledgeView view = KnowledgeView::omniscient(inst.graph);
  EXPECT_EQ(view.known(), inst.graph.vertices());
  EXPECT_EQ(view.received(), inst.graph.vertices());
  for (ProcessId id : inst.graph.vertices()) {
    ASSERT_NE(view.pd_of(id), nullptr);
    EXPECT_EQ(*view.pd_of(id), inst.graph.out_neighbors(id));
  }
  // Knowledge graph reconstructs the original.
  EXPECT_EQ(view.knowledge_graph(view.known()), inst.graph);
}

TEST(KnowledgeViewTest, AnyAddOrderIteratesAscendingAndFirstVersionWins) {
  // Owners 2..13, and a second, different version for every third owner.
  std::vector<std::pair<ProcessId, IdSet>> deliveries;
  for (std::uint64_t owner = 2; owner <= 13; ++owner) {
    deliveries.emplace_back(p(owner), IdSet{p(owner % 7 + 1), p(owner + 20)});
    if (owner % 3 == 0) {
      deliveries.emplace_back(p(owner), IdSet{p(owner + 40)});
    }
  }

  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    rng.shuffle(deliveries);
    KnowledgeView shuffled(p(1), IdSet{p(2)});
    std::map<ProcessId, IdSet> first;  // the version each owner keeps
    for (const auto& [owner, pd] : deliveries) {
      shuffled.add_pd(owner, pd);
      first.emplace(owner, pd);
    }

    // pds() runs parallel to received(), owners ascending.
    const auto& owners = shuffled.received().values();
    ASSERT_EQ(owners.size(), first.size() + 1);
    ASSERT_EQ(shuffled.pds().size(), owners.size());
    EXPECT_EQ(owners.front(), p(1));
    EXPECT_EQ(*shuffled.pds().front(), (IdSet{p(2)}));
    for (std::size_t r = 1; r < owners.size(); ++r) {
      EXPECT_LT(owners[r - 1], owners[r]);
      EXPECT_EQ(*shuffled.pds()[r], first.at(owners[r]));
      EXPECT_EQ(shuffled.pd_of(owners[r]), shuffled.pds()[r].get());
    }

    // The same content added in ascending owner order (winners first, then
    // the losing versions, whose ids still join known()) serializes to
    // the same bytes.
    KnowledgeView ordered(p(1), IdSet{p(2)});
    for (const auto& [owner, pd] : first) ordered.add_pd(owner, pd);
    for (const auto& [owner, pd] : deliveries) ordered.add_pd(owner, pd);
    EXPECT_EQ(view_canonical(shuffled, "k"), view_canonical(ordered, "k"));
  }
}

}  // namespace
}  // namespace bftcup::protocol
