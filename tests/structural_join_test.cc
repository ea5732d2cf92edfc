#include "xml/structural_join.h"

#include <gtest/gtest.h>

#include "evaluator_reference.h"
#include "index/entry.h"
#include "index/key_twig.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xmark/xmark_generator.h"

namespace webdex::xml {
namespace {

constexpr TwigAxis kChild = TwigAxis::kChild;
constexpr TwigAxis kDesc = TwigAxis::kDescendant;
constexpr TwigAxis kSelf = TwigAxis::kSelf;

/// Runs the join over ID lists with every member kept.
struct IdJoin {
  IdJoin(std::vector<TwigEdge> twig, std::vector<std::vector<NodeId>> ids)
      : edges(std::move(twig)), lists(std::move(ids)) {}

  std::vector<TwigEdge> edges;
  std::vector<std::vector<NodeId>> lists;
  std::vector<std::vector<NodeId>> sat;
  uint64_t id_ops = 0;

  bool Run() {
    const std::vector<std::span<const NodeId>> inputs(lists.begin(),
                                                      lists.end());
    return SatisfyTwig<NodeId>(
        edges, inputs, [](size_t, const NodeId&) { return true; }, &sat,
        &id_ops);
  }
};

TEST(TwigJoinTest, SingleNodeMatchesWhenAnyIdExists) {
  IdJoin join{{{-1, kDesc}}, {{NodeId{1, 5, 1}}}};
  EXPECT_TRUE(join.Run());
  EXPECT_EQ(join.sat[0], (std::vector<NodeId>{{1, 5, 1}}));
  EXPECT_EQ(join.id_ops, 0u);  // leaves count nothing
  join.lists[0].clear();
  EXPECT_FALSE(join.Run());
  EXPECT_TRUE(join.sat[0].empty());
}

TEST(TwigJoinTest, ChildEdgeRequiresDepthPlusOne) {
  // b is a grandchild: ancestor holds, parent does not.
  IdJoin join{{{-1, kDesc}, {0, kChild}},
              {{NodeId{1, 10, 1}}, {NodeId{3, 2, 3}}}};
  EXPECT_FALSE(join.Run());
  // Now at depth 2: a proper child.
  join.lists[1] = {NodeId{3, 2, 2}};
  EXPECT_TRUE(join.Run());
}

TEST(TwigJoinTest, DescendantEdgeAcceptsAnyDepth) {
  IdJoin join{{{-1, kDesc}, {0, kDesc}},
              {{NodeId{1, 10, 1}}, {NodeId{5, 4, 7}}}};
  EXPECT_TRUE(join.Run());
  // Outside the subtree (post exceeds the root's).
  join.lists[1] = {NodeId{11, 12, 2}};
  EXPECT_FALSE(join.Run());
}

TEST(TwigJoinTest, SelfEdgeRequiresIdenticalPosition) {
  // An attribute and a word of its value share one structural ID.
  IdJoin join{{{-1, kDesc}, {0, kSelf}},
              {{NodeId{2, 1, 2}}, {NodeId{2, 1, 2}}}};
  EXPECT_TRUE(join.Run());
  EXPECT_EQ(join.id_ops, 2u);  // one probe, one candidate
  join.lists[1] = {NodeId{3, 2, 2}};
  EXPECT_FALSE(join.Run());
}

TEST(TwigJoinTest, MultiBranchNeedsAllChildren) {
  // a[b, c]: one 'a' has only b, another only c -> no match; one 'a'
  // with both -> match.  Two a-subtrees: a1 = (1..5), a2 = (10..15).
  IdJoin join{{{-1, kDesc}, {0, kDesc}, {0, kDesc}},
              {{NodeId{1, 5, 2}, NodeId{10, 15, 2}},
               {NodeId{2, 1, 3}},      // inside a1
               {NodeId{11, 11, 3}}}};  // inside a2
  EXPECT_FALSE(join.Run());
  // Give a1 a c as well.
  join.lists[2].insert(join.lists[2].begin(), NodeId{3, 2, 3});
  EXPECT_TRUE(join.Run());
  EXPECT_EQ(join.sat[0], (std::vector<NodeId>{{1, 5, 2}}));
}

TEST(TwigJoinTest, SatisfyingRootIdsReported) {
  // b is a child of (2,3,2) and a grandchild of the root.
  IdJoin join{{{-1, kDesc}, {0, kChild}},
              {{NodeId{1, 8, 1}, NodeId{2, 3, 2}}, {NodeId{3, 1, 3}}}};
  EXPECT_TRUE(join.Run());
  EXPECT_EQ(join.sat[0], (std::vector<NodeId>{{2, 3, 2}}));
  // (1,8,1) examines b (depth mismatch) and runs off the list: 1 op, plus
  // 1 for the candidate; (2,3,2) finds b at once: 1 op, plus 1.
  EXPECT_EQ(join.id_ops, 4u);
}

TEST(TwigJoinTest, MissingInputListMeansNoMatch) {
  IdJoin join{{{-1, kDesc}, {0, kChild}}, {{NodeId{1, 5, 1}}, {}}};
  EXPECT_FALSE(join.Run());
  EXPECT_TRUE(join.sat[0].empty());
  EXPECT_EQ(join.id_ops, 0u);
}

TEST(TwigJoinTest, EmptyBranchEndsThePassBeforeLaterBranches) {
  // a[b[d], c[e]]: no d lies under b, so b's satisfying set is empty and
  // c's branch, which would cost 2 ops, is never computed.
  IdJoin join{{{-1, kDesc}, {0, kDesc}, {1, kDesc}, {0, kDesc}, {3, kDesc}},
              {{NodeId{1, 20, 1}},
               {NodeId{2, 5, 2}},
               {NodeId{10, 9, 3}},
               {NodeId{6, 8, 2}},
               {NodeId{7, 7, 3}}}};
  EXPECT_FALSE(join.Run());
  // b examines d once (post 9 > 5 ends the scan) and counts its candidate.
  EXPECT_EQ(join.id_ops, 2u);
  EXPECT_TRUE(join.sat[0].empty());
  EXPECT_TRUE(join.sat[3].empty());
  // With d inside b, every node is computed: b 2, c 2, a 2 + 1.
  join.lists[2] = {NodeId{3, 1, 3}};
  join.id_ops = 0;
  EXPECT_TRUE(join.Run());
  EXPECT_EQ(join.id_ops, 7u);
}

TEST(TwigJoinTest, KeepFiltersMembersBeforeTheirParents) {
  // a[b]: dropping the only b under a1 leaves a2 as the sole match.
  const std::vector<TwigEdge> edges{{-1, kDesc}, {0, kChild}};
  const std::vector<NodeId> a{{1, 5, 1}, {10, 15, 1}};
  const std::vector<NodeId> b{{2, 1, 2}, {11, 11, 2}};
  const std::vector<std::span<const NodeId>> inputs{a, b};
  std::vector<std::vector<NodeId>> sat;
  uint64_t id_ops = 0;
  EXPECT_TRUE(SatisfyTwig<NodeId>(
      edges, inputs,
      [](size_t i, const NodeId& id) { return i != 1 || id.pre != 2; },
      &sat, &id_ops));
  EXPECT_EQ(sat[1], (std::vector<NodeId>{{11, 11, 2}}));
  EXPECT_EQ(sat[0], (std::vector<NodeId>{{10, 15, 1}}));
}

TEST(TwigJoinTest, AnyRelatedVisitsTheSubtreeInDocumentOrder) {
  const NodeId parent{2, 6, 1};
  const std::vector<NodeId> list{{1, 9, 0}, {3, 1, 2}, {4, 3, 2},
                                 {5, 2, 3}, {7, 5, 2}, {8, 7, 1}};
  std::vector<uint32_t> seen;
  uint64_t id_ops = 0;
  EXPECT_FALSE(AnyRelated(std::span<const NodeId>(list), parent, kChild,
                          &id_ops, [&](const NodeId& id) {
                            seen.push_back(id.pre);
                            return false;
                          }));
  EXPECT_EQ(seen, (std::vector<uint32_t>{3, 4, 7}));
  EXPECT_EQ(id_ops, 5u);  // four in the subtree, one past it
  seen.clear();
  EXPECT_TRUE(AnyRelated(std::span<const NodeId>(list), parent, kDesc,
                         &id_ops, [&](const NodeId& id) {
                           seen.push_back(id.pre);
                           return id.pre == 5;
                         }));
  EXPECT_EQ(seen, (std::vector<uint32_t>{3, 4, 5}));
}

// --- Equivalence property ----------------------------------------------------
//
// For any label-only tree pattern (no predicates), the join must agree
// exactly with the evaluator, over both of its inputs: a document's
// extracted ID lists (the LUI look-up; LUI is exact on tree patterns,
// paper Table 5, q1-q7) and the document's label streams.

class TwigEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(TwigEquivalence, AgreesWithEvaluatorOnXmarkDocs) {
  auto parsed = query::ParseQuery(GetParam());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const query::TreePattern& pattern = parsed.value().patterns()[0];
  ASSERT_NE(pattern.root().axis, query::Axis::kChild);  // no anchoring
  const index::KeyTwig twig = index::BuildKeyTwig(pattern);
  const std::vector<TwigEdge>& edges = twig.edges;
  auto keep_all = [](size_t, const auto&) { return true; };

  xmark::GeneratorConfig config;
  config.num_documents = 40;
  config.entities_per_document = 8;
  xmark::XmarkGenerator generator(config);

  int matches = 0;
  for (int i = 0; i < config.num_documents; ++i) {
    const Document doc = generator.GenerateDom(i);
    const bool real_match = query::Evaluator::Matches(pattern, doc);
    query::reference::WorkStats stats;
    EXPECT_EQ(real_match, query::reference::Matches(pattern, doc, &stats))
        << "doc " << i << " pattern " << GetParam();

    // ID lists, as the LUI look-up decodes them.
    const index::DocIndex doc_index = index::ExtractDocIndex(doc);
    std::vector<std::vector<NodeId>> id_lists;
    for (const uint32_t key : twig.node_keys) {
      const index::DocIndex::Entry* entry = doc_index.Find(twig.keys[key]);
      id_lists.push_back(entry == nullptr ? std::vector<NodeId>{}
                                          : doc_index.IdVector(*entry));
    }
    const std::vector<std::span<const NodeId>> ids(id_lists.begin(),
                                                   id_lists.end());
    std::vector<std::vector<NodeId>> id_sat;
    uint64_t id_ops = 0;
    EXPECT_EQ(SatisfyTwig<NodeId>(edges, ids, keep_all, &id_sat, &id_ops),
              real_match)
        << "ID lists, doc " << i << " pattern " << GetParam();

    // Label streams, as the evaluator reads them.  Label-only twig nodes
    // are the pattern's nodes, in the same pre-order.
    std::vector<std::span<const Node* const>> streams;
    for (const query::PatternNode* node : pattern.nodes()) {
      streams.push_back(doc.Labelled(
          node->is_attribute ? NodeKind::kAttribute : NodeKind::kElement,
          node->label));
    }
    std::vector<std::vector<const Node*>> node_sat;
    uint64_t node_ops = 0;
    EXPECT_EQ(SatisfyTwig<const Node*>(edges, streams, keep_all, &node_sat,
                                       &node_ops),
              real_match)
        << "label streams, doc " << i << " pattern " << GetParam();
    matches += real_match ? 1 : 0;
  }
  // The chosen patterns must be non-trivial on this corpus: some but not
  // all documents match.
  EXPECT_GT(matches, 0) << GetParam();
  EXPECT_LT(matches, config.num_documents) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, TwigEquivalence,
    ::testing::Values(
        // Mutated docs lack the mailbox wrapper: item/mailbox/mail is a
        // discriminating twig.
        "//item[/mailbox/mail]",
        // Path mutation moves name under description.
        "//item[/name, /payment]",
        // Optional-drop documents lose reserve/privacy.
        "//open_auction[/reserve, /privacy]",
        "//person[/address[/city], /homepage]",
        "//open_auction[/annotation/itemref]",
        "//item[/description/name]",
        "//person[/watches/watch]",
        "//closed_auction[/annotation[/happiness], /buyer]"));

}  // namespace
}  // namespace webdex::xml
