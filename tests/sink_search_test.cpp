#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "common/random.hpp"
#include "graph/figures.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "protocol/sink.hpp"
#include "protocol/sink_search.hpp"
#include "test_util.hpp"

namespace bftcup::protocol {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

bool has_candidate(const std::vector<SinkCandidate>& cs, const IdSet& members,
                   std::size_t g) {
  return std::any_of(cs.begin(), cs.end(), [&](const SinkCandidate& c) {
    return c.g == g && c.members() == members;
  });
}

TEST(ExhaustiveSearchTest, FindsPaperExampleCandidate) {
  const auto inst = graph::figures::fig1b();
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  view.add_pd(p(3), inst.graph.out_neighbors(p(3)));
  view.add_pd(p(4), IdSet{p(1), p(2), p(3)});

  const ExhaustiveSinkSearch search;
  const auto candidates = search.candidates(view);
  EXPECT_TRUE(has_candidate(candidates, IdSet{p(1), p(2), p(3), p(4)}, 1));
}

TEST(ExhaustiveSearchTest, EmptyViewNoCandidatesAtPositiveG) {
  KnowledgeView view(p(1), IdSet{p(2)});
  const ExhaustiveSinkSearch search;
  for (const SinkCandidate& c : search.candidates(view)) {
    EXPECT_EQ(c.g, 0U);  // nothing stronger than the trivial candidates
  }
}

TEST(ExhaustiveSearchTest, Fig2cFindsBothHalves) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig2c().graph);
  const ExhaustiveSinkSearch search;
  const auto candidates = search.candidates(view);
  EXPECT_TRUE(
      has_candidate(candidates, IdSet{p(1), p(2), p(3), p(4)}, 1));
  EXPECT_TRUE(
      has_candidate(candidates, IdSet{p(5), p(6), p(7), p(8)}, 1));
}

TEST(ExhaustiveSearchTest, OversizedSccTakesCertificationPath) {
  graph::Digraph g;
  for (std::uint64_t a = 1; a <= 8; ++a) {
    for (std::uint64_t b = 1; b <= 8; ++b) {
      if (a != b) g.add_edge(p(a), p(b));
    }
  }
  SearchOptions options;
  options.exhaustive_cap = 4;  // K8's SCC exceeds the cap -> big-SCC path
  const ExhaustiveSinkSearch search(options);
  const auto candidates = search.candidates(KnowledgeView::omniscient(g));
  // The component itself is certified: K8 has κ = 7 and no outside edges,
  // so (S1 = K8, S2 = ∅) is admissible up to g = (|S1|-1)/2 = 3.
  IdSet all;
  for (std::uint64_t a = 1; a <= 8; ++a) all.insert(p(a));
  for (std::size_t g_val : {0U, 1U, 2U, 3U}) {
    EXPECT_TRUE(has_candidate(candidates, all, g_val)) << "g=" << g_val;
  }
  // No subsets beyond the sampled C \ D family sneak in at higher g.
  for (const SinkCandidate& c : candidates) EXPECT_LE(c.g, 3U);
}

TEST(StructuredSearchTest, FindsWholeSccCandidates) {
  // A realistic in-protocol view: an A-side process of fig2c that has
  // received only A-side PDs. The received-knowledge SCC is the K4, which
  // the structured strategy tries directly.
  const auto inst = graph::figures::fig2c();
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  for (std::uint64_t id : {2, 3, 4}) {
    view.add_pd(p(id), inst.graph.out_neighbors(p(id)));
  }
  const StructuredSinkSearch search;
  const auto candidates = search.candidates(view);
  EXPECT_TRUE(has_candidate(candidates, IdSet{p(1), p(2), p(3), p(4)}, 1));
}

TEST(StructuredSearchTest, RemovalsRecoverSubsets) {
  // Fig. 1b knowledge with 4's fake PD pointing back: the satisfying
  // S1 = {1,2,3} is the K4 SCC minus one node — reachable with removal_cap 1.
  const auto inst = graph::figures::fig1b();
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  view.add_pd(p(2), inst.graph.out_neighbors(p(2)));
  view.add_pd(p(3), inst.graph.out_neighbors(p(3)));
  view.add_pd(p(4), IdSet{p(1), p(2), p(3)});

  SearchOptions options;
  options.removal_cap = 1;
  const StructuredSinkSearch search(options);
  const auto candidates = search.candidates(view);
  EXPECT_TRUE(has_candidate(candidates, IdSet{p(1), p(2), p(3), p(4)}, 1));
}

class StrategyAgreementTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StrategyAgreementTest, StructuredFindsWhatExhaustiveFinds) {
  // On generated BFT-CUP systems, any member-set the exhaustive strategy
  // finds at the true f must also be found by the structured strategy
  // (possibly via different witnesses).
  Rng rng(GetParam());
  graph::generators::BftCupParams params;
  params.f = 1;
  params.sink_size = 5;
  params.non_sink = 3;
  params.byzantine_in_sink = 1;
  const auto sys = graph::generators::random_bft_cup(params, rng);
  const auto view = KnowledgeView::omniscient(sys.graph);

  const ExhaustiveSinkSearch exhaustive;
  const StructuredSinkSearch structured;
  const auto ce = exhaustive.candidates(view);
  const auto cs = structured.candidates(view);

  for (const SinkCandidate& c : ce) {
    if (c.g != params.f) continue;
    EXPECT_TRUE(has_candidate(cs, c.members(), c.g))
        << "structured missed members set of size " << c.members().size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyAgreementTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- The mask kernel against the reference predicate -----------------------
//
// Both strategies evaluate each S1 inside a received SCC on ComponentMasks.
// These cases rebuild the same S1 family here, in the same order, and run
// every S1 through the reference admissible_thresholds(view, S1).

std::vector<IdSet> received_components(const KnowledgeView& view) {
  return graph::strongly_connected_components(
             view.knowledge_graph(view.received()))
      .members;
}

void reference_collect(const KnowledgeView& view, const IdSet& s1,
                       std::vector<SinkCandidate>& out) {
  for (AdmissibleSplit& split : admissible_thresholds(view, s1)) {
    out.push_back({s1, std::move(split.s2), split.g});
  }
}

/// The subset of `scc` that `mask` names (bit b = the b-th smallest id).
IdSet subset(const IdSet& scc, std::uint64_t mask) {
  IdSet s1;
  for (std::size_t b = 0; b < scc.size(); ++b) {
    if ((mask >> b) & 1U) s1.insert(scc.values()[b]);
  }
  return s1;
}

/// Every non-empty subset of every received SCC, masks ascending.
std::vector<SinkCandidate> reference_exhaustive(const KnowledgeView& view) {
  std::vector<SinkCandidate> out;
  for (const IdSet& scc : received_components(view)) {
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << scc.size());
         ++mask) {
      reference_collect(view, subset(scc, mask), out);
    }
  }
  return out;
}

/// `s1` minus every d-combination of scc's members from index `first` on,
/// in lexicographic order of the removed indices.
void remove_combinations(const KnowledgeView& view, const IdSet& scc,
                         const IdSet& s1, std::size_t d, std::size_t first,
                         std::vector<SinkCandidate>& out) {
  if (d == 0) {
    reference_collect(view, s1, out);
    return;
  }
  for (std::size_t i = first; i + d <= scc.size(); ++i) {
    IdSet rest = s1;
    rest.erase(scc.values()[i]);
    remove_combinations(view, scc, rest, d - 1, i + 1, out);
  }
}

/// Every received SCC C, then C \ D for |D| = 1 .. removal_cap.
std::vector<SinkCandidate> reference_structured(const KnowledgeView& view,
                                                std::size_t removal_cap) {
  std::vector<SinkCandidate> out;
  for (const IdSet& scc : received_components(view)) {
    reference_collect(view, scc, out);
    for (std::size_t d = 1; d <= std::min(removal_cap, scc.size() - 1); ++d) {
      remove_combinations(view, scc, scc, d, 0, out);
    }
  }
  return out;
}

/// Split-by-split: the kernel of every multi-member received SCC against
/// the reference, on every mask (SCCs up to 12 members) or on C and every
/// C \ {v} (larger SCCs).
void expect_kernel_matches_reference(const KnowledgeView& view) {
  for (const IdSet& scc : received_components(view)) {
    if (scc.size() < 2) continue;
    const ComponentMasks kernel(view, scc);
    ASSERT_EQ(kernel.size(), scc.size());
    const auto check = [&](std::uint64_t mask) {
      const IdSet s1 = subset(scc, mask);
      ASSERT_EQ(kernel.members(mask), s1);
      EXPECT_EQ(kernel.admissible_thresholds(mask),
                admissible_thresholds(view, s1))
          << "|C| = " << scc.size() << ", mask = " << mask;
    };
    if (scc.size() <= 12) {
      for (std::uint64_t mask = 1; mask <= kernel.all(); ++mask) check(mask);
      continue;
    }
    check(kernel.all());
    for (std::size_t i = 0; i < scc.size(); ++i) {
      check(kernel.all() & ~(std::uint64_t{1} << i));
    }
  }
}

class KernelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelPropertyTest, ExhaustiveMatchesEveryMaskThroughTheReference) {
  Rng rng(GetParam());
  const std::size_t n = 6 + GetParam() % 7;
  const KnowledgeView view = test::random_view(
      rng, n, 1.5 + static_cast<double>(rng.next_below(n)) / 2);
  SearchOptions options;
  options.exhaustive_cap = 12;
  EXPECT_EQ(ExhaustiveSinkSearch(options).candidates(view),
            reference_exhaustive(view));
  expect_kernel_matches_reference(view);
}

TEST_P(KernelPropertyTest, StructuredMatchesRemovalsThroughTheReference) {
  Rng rng(GetParam() + 1000);
  const KnowledgeView view = test::random_view(
      rng, 13 + GetParam() % 28, 2 + static_cast<double>(rng.next_below(4)));
  SearchOptions options;
  options.removal_cap = 2;
  EXPECT_EQ(StructuredSinkSearch(options).candidates(view),
            reference_structured(view, options.removal_cap));
  expect_kernel_matches_reference(view);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// --- What a search reports per received SCC -------------------------------
//
// Every received component, singletons included, opens one
// membership.scc_eval span (its size as the argument, in component order)
// and records one eval.scc_size sample; every component above the
// strategy's enumeration cap counts one engine.big_scc_fallbacks.

void expect_scc_observations(const SinkSearch& search, std::size_t cap,
                             const KnowledgeView& view) {
  obs::MetricsRegistry metrics;
  obs::SpanTracer tracer(1 << 16);
  {
    const obs::ObsScope scope(&metrics, &tracer);
    (void)search.candidates(view);
  }
  const std::vector<IdSet> components = received_components(view);
  std::vector<std::uint64_t> sizes;
  std::uint64_t above_cap = 0;
  for (const IdSet& scc : components) {
    sizes.push_back(scc.size());
    above_cap += scc.size() > cap ? 1 : 0;
  }

  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  const auto histogram = snapshot.histograms.find("eval.scc_size");
  ASSERT_NE(histogram, snapshot.histograms.end()) << search.name();
  EXPECT_EQ(histogram->second.count, components.size()) << search.name();
  EXPECT_EQ(histogram->second.sum, view.received().size()) << search.name();
  EXPECT_EQ(snapshot.counter("engine.big_scc_fallbacks"), above_cap)
      << search.name();

  const obs::SpanTrace trace = tracer.take();
  ASSERT_EQ(trace.dropped, 0U);
  std::vector<std::uint64_t> span_sizes;
  for (const obs::SpanRecord& record : trace.records) {
    if (trace.names[record.name_id] == "membership.scc_eval") {
      span_sizes.push_back(record.arg);
    }
  }
  EXPECT_EQ(span_sizes, sizes) << search.name();
}

TEST_P(KernelPropertyTest, EveryReceivedSccIsObservedOnce) {
  // The views of the two property tests above, searched with exhaustive
  // caps small enough that larger components take the big-SCC path; at
  // cap 0 every component does, singletons included.
  Rng exhaustive_rng(GetParam());
  const std::size_t n = 6 + GetParam() % 7;
  const KnowledgeView small_view = test::random_view(
      exhaustive_rng, n,
      1.5 + static_cast<double>(exhaustive_rng.next_below(n)) / 2);
  Rng structured_rng(GetParam() + 1000);
  const KnowledgeView large_view = test::random_view(
      structured_rng, 13 + GetParam() % 28,
      2 + static_cast<double>(structured_rng.next_below(4)));

  SearchOptions options;
  options.removal_cap = 2;
  for (const KnowledgeView* view : {&small_view, &large_view}) {
    for (std::size_t cap : {0U, 3U}) {
      options.exhaustive_cap = cap;
      expect_scc_observations(ExhaustiveSinkSearch(options), cap, *view);
    }
    expect_scc_observations(StructuredSinkSearch(options),
                            ComponentMasks::kMaxMembers, *view);
  }
}

TEST(SccObservationTest, ComponentAboveTheCapBetweenSmallerOnes) {
  // Cliques {1,2,3} -> {11..16} -> {21,22,23} -> singleton {30}: Tarjan
  // from vertex 1 emits {30}, {21,22,23}, the six-member clique (above
  // the cap of 4), then {1,2,3}.
  graph::Digraph g;
  for (const auto& clique :
       {std::vector<std::uint64_t>{1, 2, 3},
        std::vector<std::uint64_t>{11, 12, 13, 14, 15, 16},
        std::vector<std::uint64_t>{21, 22, 23}}) {
    for (std::uint64_t a : clique) {
      for (std::uint64_t b : clique) {
        if (a != b) g.add_edge(p(a), p(b));
      }
    }
  }
  g.add_edge(p(3), p(11));
  g.add_edge(p(16), p(21));
  g.add_edge(p(23), p(30));
  const KnowledgeView view = KnowledgeView::omniscient(g);
  std::vector<std::size_t> sizes;
  for (const IdSet& scc : received_components(view)) {
    sizes.push_back(scc.size());
  }
  ASSERT_EQ(sizes, (std::vector<std::size_t>{1, 3, 6, 3}));

  SearchOptions options;
  options.exhaustive_cap = 4;
  expect_scc_observations(ExhaustiveSinkSearch(options),
                          options.exhaustive_cap, view);
  expect_scc_observations(StructuredSinkSearch(options),
                          ComponentMasks::kMaxMembers, view);
}

/// Omniscient view of a circulant digraph on `n` vertices with an edge
/// i -> i+s (mod n) for every step s, ids spaced out by 1000.
KnowledgeView circulant(std::size_t n,
                        std::initializer_list<std::size_t> steps) {
  graph::Digraph g;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s : steps) {
      g.add_edge(p(1000 * i + 7), p(1000 * ((i + s) % n) + 7));
    }
  }
  return KnowledgeView::omniscient(g);
}

TEST(KernelFallbackTest, CirculantNeedsTheFlowRoutine) {
  // C8(1,2) is not complete and every degree is 2, so the mask exits leave
  // κ in [1, 2]; g = 1 passes P3, so κ itself (2) comes from the flows.
  const KnowledgeView view = circulant(8, {1, 2});
  const ComponentMasks kernel(view, view.received());
  const auto splits = kernel.admissible_thresholds(kernel.all());
  ASSERT_EQ(splits.size(), 2U);
  EXPECT_EQ(splits[1].g, 1U);
  EXPECT_EQ(splits, admissible_thresholds(view, view.received()));
  EXPECT_EQ(ExhaustiveSinkSearch().candidates(view),
            reference_exhaustive(view));
  expect_kernel_matches_reference(view);
}

TEST(KernelFallbackTest, CutVertexDropsSplitsTheDegreeBoundAllows) {
  // Two K4s sharing vertex 4: every degree is at least 3, but 4 is a cut
  // vertex, so κ = 1 and only g = 0 survives the flow routine.
  graph::Digraph g;
  for (const auto& clique : {std::vector<std::uint64_t>{1, 2, 3, 4},
                             std::vector<std::uint64_t>{4, 5, 6, 7}}) {
    for (std::uint64_t a : clique) {
      for (std::uint64_t b : clique) {
        if (a != b) g.add_edge(p(a), p(b));
      }
    }
  }
  const KnowledgeView view = KnowledgeView::omniscient(g);
  const ComponentMasks kernel(view, view.received());
  const auto splits = kernel.admissible_thresholds(kernel.all());
  ASSERT_EQ(splits.size(), 1U);
  EXPECT_EQ(splits[0].g, 0U);
  EXPECT_EQ(splits, admissible_thresholds(view, view.received()));
  EXPECT_EQ(ExhaustiveSinkSearch().candidates(view),
            reference_exhaustive(view));
}

TEST(KernelFallbackTest, SixtyThreeMemberRingThroughStructuredRemovals) {
  // The largest component the kernel takes: the whole ring (κ = 2 from the
  // flows) and every C \ {v}, a two-way path with κ = 1.
  const KnowledgeView view = circulant(63, {1, 62});
  ASSERT_EQ(view.received().size(), ComponentMasks::kMaxMembers);
  SearchOptions options;
  options.removal_cap = 1;
  const auto candidates = StructuredSinkSearch(options).candidates(view);
  EXPECT_EQ(candidates, reference_structured(view, 1));
  EXPECT_TRUE(has_candidate(candidates, view.received(), 1));
  EXPECT_EQ(candidates.size(), 2U + 63U);
}

TEST(TryFindSinkTest, RequiresExactG) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig3b().graph);
  const ExhaustiveSinkSearch search;
  // At f = 2 the K5 core (+ absorbed Byzantine) is found...
  const auto at2 = try_find_sink(view, 2, search);
  ASSERT_TRUE(at2.has_value());
  EXPECT_EQ(at2->members, view.known());
  // ... and an absurd threshold finds nothing.
  EXPECT_FALSE(try_find_sink(view, 3, search).has_value());
}

TEST(TryFindSinkTest, ReturnsMembersUnionS1S2) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig1b().graph);
  const ExhaustiveSinkSearch search;
  const auto sink = try_find_sink(view, 1, search);
  ASSERT_TRUE(sink.has_value());
  const auto candidates = search.candidates(view);
  const auto first_at_f = std::find_if(
      candidates.begin(), candidates.end(),
      [](const SinkCandidate& c) { return c.g == 1; });
  ASSERT_NE(first_at_f, candidates.end());
  EXPECT_EQ(sink->members, first_at_f->s1.set_union(first_at_f->s2));
  EXPECT_EQ(sink->g, 1U);
  EXPECT_EQ(sink->members, (IdSet{p(1), p(2), p(3), p(4)}));
}

}  // namespace
}  // namespace bftcup::protocol
