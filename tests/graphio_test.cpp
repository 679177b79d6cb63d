#include <gtest/gtest.h>

#include "graph/figures.hpp"
#include "graph/graphio.hpp"

namespace bftcup::graph::io {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(EdgeListTest, ParseBasic) {
  const auto g = parse_edge_list("1 -> 2\n2 -> 3\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(g->has_edge(p(1), p(2)));
  EXPECT_TRUE(g->has_edge(p(2), p(3)));
  EXPECT_EQ(g->edge_count(), 2U);
}

TEST(EdgeListTest, CommentsBlanksAndVertices) {
  const auto g = parse_edge_list(
      "# a comment\n"
      "\n"
      "v 7\n"
      "1 -> 2\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(g->has_vertex(p(7)));
  EXPECT_EQ(g->vertex_count(), 3U);
}

TEST(EdgeListTest, WhitespaceTolerant) {
  const auto g = parse_edge_list("  1   ->   2  \r\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(g->has_edge(p(1), p(2)));
}

TEST(EdgeListTest, MalformedRejected) {
  EXPECT_FALSE(parse_edge_list("1 - 2\n").has_value());
  EXPECT_FALSE(parse_edge_list("x -> 2\n").has_value());
  EXPECT_FALSE(parse_edge_list("1 -> \n").has_value());
  EXPECT_FALSE(parse_edge_list("v abc\n").has_value());
}

TEST(EdgeListTest, SelfLoopKeepsItsVertex) {
  // The loop itself is dropped, as everywhere in Digraph, but process 5 is
  // still part of the system the file names.
  const auto g = parse_edge_list("5 -> 5\n1 -> 2\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(g->has_vertex(p(5)));
  EXPECT_EQ(g->vertex_count(), 3U);
  EXPECT_EQ(g->edge_count(), 1U);
  EXPECT_FALSE(g->has_edge(p(5), p(5)));
}

TEST(EdgeListTest, RoundTripFigure) {
  const Digraph original = figures::fig1b().graph;
  const auto back = parse_edge_list(to_edge_list(original));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, original);
}

TEST(EdgeListTest, RoundTripWithIsolatedVertex) {
  Digraph g;
  g.add_vertex(p(9));
  g.add_edge(p(1), p(2));
  const auto back = parse_edge_list(to_edge_list(g));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
}

TEST(DotTest, ContainsVerticesAndEdges) {
  Digraph g;
  g.add_edge(p(1), p(2));
  const std::string dot = to_dot(g, {p(2)});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("p1 -> p2"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // faulty marker
}

}  // namespace
}  // namespace bftcup::graph::io
