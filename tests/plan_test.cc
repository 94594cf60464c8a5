#include <gtest/gtest.h>

#include "fts/common/string_util.h"
#include "fts/plan/lqp.h"
#include "fts/plan/optimizer.h"
#include "fts/plan/physical_plan.h"
#include "fts/plan/translator.h"
#include "fts/sql/parser.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace fts {
namespace {

// Table with one near-unique column ("id") and one low-cardinality column
// ("flag") so the reordering rule has a clear winner.
TablePtr MakeSkewTable(size_t rows = 4000) {
  AlignedVector<int32_t> id(rows), flag(rows);
  for (size_t i = 0; i < rows; ++i) {
    id[i] = static_cast<int32_t>(i);
    flag[i] = static_cast<int32_t>(i % 2);
  }
  TableBuilder builder({{"id", DataType::kInt32},
                        {"flag", DataType::kInt32}});
  FTS_CHECK(builder
                .AddChunk({std::make_shared<ValueColumn<int32_t>>(
                               std::move(id)),
                           std::make_shared<ValueColumn<int32_t>>(
                               std::move(flag))})
                .ok());
  return builder.Build();
}

LqpNodePtr ParseAndBuild(const std::string& sql, TablePtr table) {
  const auto statement = ParseSelect(sql);
  FTS_CHECK(statement.ok());
  auto lqp = BuildLqp(*statement, statement->table, std::move(table));
  FTS_CHECK(lqp.ok());
  return *lqp;
}

std::vector<LqpNodeKind> ChainKinds(const LqpNodePtr& root) {
  std::vector<LqpNodeKind> kinds;
  for (LqpNode* node = root.get(); node != nullptr;
       node = node->child().get()) {
    kinds.push_back(node->kind());
  }
  return kinds;
}

TEST(LqpBuildTest, CountQueryShape) {
  const auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id = 5 AND flag = 1", MakeSkewTable());
  EXPECT_EQ(ChainKinds(lqp),
            (std::vector<LqpNodeKind>{
                LqpNodeKind::kAggregate, LqpNodeKind::kPredicate,
                LqpNodeKind::kPredicate, LqpNodeKind::kStoredTable}));
}

TEST(LqpBuildTest, ProjectionQueryShape) {
  const auto lqp =
      ParseAndBuild("SELECT id FROM t WHERE flag = 1", MakeSkewTable());
  EXPECT_EQ(ChainKinds(lqp),
            (std::vector<LqpNodeKind>{LqpNodeKind::kProjection,
                                      LqpNodeKind::kPredicate,
                                      LqpNodeKind::kStoredTable}));
}

TEST(LqpBuildTest, UnknownColumnRejected) {
  const auto statement =
      ParseSelect("SELECT COUNT(*) FROM t WHERE nope = 5");
  ASSERT_TRUE(statement.ok());
  EXPECT_FALSE(BuildLqp(*statement, "t", MakeSkewTable()).ok());
}

TEST(LqpBuildTest, ExplainListsEveryNode) {
  const auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id = 5 AND flag = 1", MakeSkewTable());
  const std::string text = ExplainLqp(lqp);
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
  EXPECT_NE(text.find("id = 5"), std::string::npos);
  EXPECT_NE(text.find("flag = 1"), std::string::npos);
  EXPECT_NE(text.find("StoredTable"), std::string::npos);
}

TEST(OptimizerTest, ReorderingPutsSelectivePredicateFirst) {
  // "flag = 1" matches 50%; "id = 123" matches ~1/4000. Built in the
  // order flag-then-id (flag closest to the table), the rule must swap.
  auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE flag = 1 AND id = 123",
      MakeSkewTable());
  OptimizerOptions options;
  options.enable_fusion = false;
  ASSERT_TRUE(OptimizeLqp(&lqp, options).ok());

  // Root-first: Aggregate, Predicate(flag), Predicate(id), StoredTable —
  // the id predicate must now be nearest the table (evaluated first).
  LqpNode* node = lqp->child().get();
  ASSERT_EQ(node->kind(), LqpNodeKind::kPredicate);
  EXPECT_EQ(static_cast<PredicateNode*>(node)->predicate().column, "flag");
  node = node->child().get();
  ASSERT_EQ(node->kind(), LqpNodeKind::kPredicate);
  EXPECT_EQ(static_cast<PredicateNode*>(node)->predicate().column, "id");
  EXPECT_TRUE(static_cast<PredicateNode*>(node)
                  ->estimated_selectivity()
                  .has_value());
}

TEST(OptimizerTest, SimplificationDropsDuplicates) {
  auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id = 5 AND id = 5 AND flag = 1",
      MakeSkewTable());
  PredicateSimplificationRule rule;
  ASSERT_TRUE(rule.Apply(&lqp).ok());
  const auto kinds = ChainKinds(lqp);
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), LqpNodeKind::kPredicate),
            2);
}

TEST(OptimizerTest, SimplificationSubsumesLooserBounds) {
  auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id < 5 AND id < 9 AND id >= 2 "
      "AND id >= 1",
      MakeSkewTable());
  PredicateSimplificationRule rule;
  ASSERT_TRUE(rule.Apply(&lqp).ok());
  std::vector<std::string> remaining;
  for (LqpNode* node = lqp.get(); node != nullptr;
       node = node->child().get()) {
    if (node->kind() == LqpNodeKind::kPredicate) {
      remaining.push_back(
          static_cast<PredicateNode*>(node)->predicate().ToString());
    }
  }
  // Root-first order (execution order is bottom-up): the tight bounds
  // survive, the loose ones are gone.
  EXPECT_EQ(remaining, (std::vector<std::string>{"id >= 2", "id < 5"}));
}

TEST(OptimizerTest, SimplificationEqualitySubsumesRange) {
  auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id = 5 AND id < 9 AND id >= 2",
      MakeSkewTable());
  PredicateSimplificationRule rule;
  ASSERT_TRUE(rule.Apply(&lqp).ok());
  const auto kinds = ChainKinds(lqp);
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), LqpNodeKind::kPredicate),
            1);
}

TEST(OptimizerTest, SimplificationDetectsContradictions) {
  for (const char* where :
       {"id = 5 AND id = 6", "id = 5 AND id < 3", "id = 5 AND id <> 5",
        "id > 9 AND id <= 2", "id > 5 AND id < 5", "id >= 5 AND id < 5"}) {
    auto lqp = ParseAndBuild(
        StrFormat("SELECT COUNT(*) FROM t WHERE %s", where),
        MakeSkewTable());
    PredicateSimplificationRule rule;
    ASSERT_TRUE(rule.Apply(&lqp).ok()) << where;
    const auto kinds = ChainKinds(lqp);
    EXPECT_NE(std::find(kinds.begin(), kinds.end(),
                        LqpNodeKind::kEmptyResult),
              kinds.end())
        << where;
  }
}

TEST(OptimizerTest, SimplificationKeepsSatisfiableChains) {
  for (const char* where :
       {"id >= 5 AND id <= 5", "id > 4 AND id < 6",
        "id = 5 AND id <> 6", "id <> 3 AND id <> 4"}) {
    auto lqp = ParseAndBuild(
        StrFormat("SELECT COUNT(*) FROM t WHERE %s", where),
        MakeSkewTable());
    PredicateSimplificationRule rule;
    ASSERT_TRUE(rule.Apply(&lqp).ok()) << where;
    const auto kinds = ChainKinds(lqp);
    EXPECT_EQ(std::find(kinds.begin(), kinds.end(),
                        LqpNodeKind::kEmptyResult),
              kinds.end())
        << where;
  }
}

TEST(OptimizerTest, ContradictionExecutesToZeroRows) {
  const TablePtr table = MakeSkewTable(100);
  auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id = 5 AND id = 6", table);
  ASSERT_TRUE(OptimizeLqp(&lqp).ok());
  const auto plan = TranslateLqp(lqp);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty_result);
  const auto result = ExecutePlan(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->count, 0u);
  EXPECT_NE(plan->Explain().find("EmptyResult"), std::string::npos);
}

TEST(OptimizerTest, FusionCollapsesChains) {
  auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id = 5 AND flag = 1 AND id < 100",
      MakeSkewTable());
  ASSERT_TRUE(OptimizeLqp(&lqp).ok());
  const auto kinds = ChainKinds(lqp);
  EXPECT_EQ(kinds, (std::vector<LqpNodeKind>{LqpNodeKind::kAggregate,
                                             LqpNodeKind::kFusedScan,
                                             LqpNodeKind::kStoredTable}));
  // The fused node carries the surviving predicates (simplification
  // subsumed "id < 100" under "id = 5"), execution order first.
  for (LqpNode* node = lqp.get(); node != nullptr;
       node = node->child().get()) {
    if (node->kind() != LqpNodeKind::kFusedScan) continue;
    const auto& predicates =
        static_cast<FusedScanNode*>(node)->predicates();
    ASSERT_EQ(predicates.size(), 2u);
    EXPECT_EQ(predicates[0].ToString(), "id = 5");
    EXPECT_EQ(predicates[1].ToString(), "flag = 1");
  }
}

TEST(OptimizerTest, SinglePredicateNotFused) {
  auto lqp = ParseAndBuild("SELECT COUNT(*) FROM t WHERE id = 5",
                           MakeSkewTable());
  ASSERT_TRUE(OptimizeLqp(&lqp).ok());
  const auto kinds = ChainKinds(lqp);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), LqpNodeKind::kPredicate),
            kinds.end());
  EXPECT_EQ(std::find(kinds.begin(), kinds.end(), LqpNodeKind::kFusedScan),
            kinds.end());
}

TEST(OptimizerTest, PushdownMovesPredicateBelowProjection) {
  // Hand-built pathological tree: Predicate above Projection.
  const TablePtr table = MakeSkewTable();
  auto stored = std::make_shared<StoredTableNode>("t", table);
  auto projection = std::make_shared<ProjectionNode>(
      std::vector<std::string>{"id", "flag"}, false);
  projection->set_child(stored);
  auto predicate = std::make_shared<PredicateNode>(
      AstPredicate{"flag", CompareOp::kEq, Value(1)});
  predicate->set_child(projection);
  LqpNodePtr root = predicate;

  PredicatePushdownRule rule;
  ASSERT_TRUE(rule.Apply(&root).ok());
  EXPECT_EQ(ChainKinds(root),
            (std::vector<LqpNodeKind>{LqpNodeKind::kProjection,
                                      LqpNodeKind::kPredicate,
                                      LqpNodeKind::kStoredTable}));
}

TEST(TranslatorTest, FusedPlanHasOneStep) {
  auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id = 5 AND flag = 1", MakeSkewTable());
  ASSERT_TRUE(OptimizeLqp(&lqp).ok());
  TranslatorOptions options;
  options.engine = ScanEngine::kScalarFused;
  const auto plan = TranslateLqp(lqp, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->scan_steps.size(), 1u);
  EXPECT_EQ(plan->scan_steps[0].spec.predicates.size(), 2u);
  EXPECT_EQ(plan->output, PhysicalPlan::Output::kCountStar);
}

TEST(TranslatorTest, UnfusedPlanHasStepPerPredicate) {
  auto lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE id = 5 AND flag = 1", MakeSkewTable());
  OptimizerOptions optimizer_options;
  optimizer_options.enable_fusion = false;
  ASSERT_TRUE(OptimizeLqp(&lqp, optimizer_options).ok());
  TranslatorOptions options;
  options.engine = ScanEngine::kSisdNoVec;
  const auto plan = TranslateLqp(lqp, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan_steps.size(), 2u);
  // Execution order: most selective (id) first.
  EXPECT_EQ(plan->scan_steps[0].spec.predicates[0].column, "id");
}

TEST(TranslatorTest, SelectStarResolvesAllColumns) {
  auto lqp = ParseAndBuild("SELECT * FROM t WHERE id < 3", MakeSkewTable());
  const auto plan = TranslateLqp(lqp);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->projection_names,
            (std::vector<std::string>{"id", "flag"}));
  EXPECT_EQ(plan->projection_indexes, (std::vector<size_t>{0, 1}));
}

TEST(ExecutePlanTest, CountAndProjectAgree) {
  const TablePtr table = MakeSkewTable(1000);
  auto count_lqp = ParseAndBuild(
      "SELECT COUNT(*) FROM t WHERE flag = 1 AND id < 100", table);
  ASSERT_TRUE(OptimizeLqp(&count_lqp).ok());
  TranslatorOptions options;
  options.engine = ScanEngine::kScalarFused;
  const auto count_plan = TranslateLqp(count_lqp, options);
  ASSERT_TRUE(count_plan.ok());
  const auto count_result = ExecutePlan(*count_plan);
  ASSERT_TRUE(count_result.ok());
  EXPECT_EQ(*count_result->count, 50u);  // Odd ids below 100.

  auto project_lqp =
      ParseAndBuild("SELECT id FROM t WHERE flag = 1 AND id < 100", table);
  ASSERT_TRUE(OptimizeLqp(&project_lqp).ok());
  const auto project_plan = TranslateLqp(project_lqp, options);
  ASSERT_TRUE(project_plan.ok());
  const auto project_result = ExecutePlan(*project_plan);
  ASSERT_TRUE(project_result.ok());
  ASSERT_EQ(project_result->RowCountOut(), 50u);
  EXPECT_EQ(ValueAs<int>(project_result->ValueAt(0, 0)), 1);
  EXPECT_EQ(ValueAs<int>(project_result->ValueAt(49, 0)), 99);
}

TEST(ExecutePlanTest, MultiStepRefinementMatchesFused) {
  const TablePtr table = MakeSkewTable(2000);
  for (const bool fused : {true, false}) {
    auto lqp = ParseAndBuild(
        "SELECT COUNT(*) FROM t WHERE flag = 0 AND id >= 100 AND id < 200",
        table);
    OptimizerOptions optimizer_options;
    optimizer_options.enable_fusion = fused;
    ASSERT_TRUE(OptimizeLqp(&lqp, optimizer_options).ok());
    TranslatorOptions options;
    options.engine =
        fused ? ScanEngine::kScalarFused : ScanEngine::kSisdAutoVec;
    const auto plan = TranslateLqp(lqp, options);
    ASSERT_TRUE(plan.ok());
    const auto result = ExecutePlan(*plan);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result->count, 50u) << "fused=" << fused;
  }
}

// Regression: a refine step whose predicate lands on an RLE/delta column
// carries it in ChunkPlan::compressed, not ChunkPlan::stages. The refine
// step used to consult only `stages`, so the conjunct was silently dropped and
// non-fused plans over-counted.
TEST(ExecutePlanTest, MultiStepRefinementEvaluatesCompressedStages) {
  constexpr size_t kRows = 2000;
  TableBuilder builder(
      {{"id", DataType::kInt64}, {"flag", DataType::kInt64}},
      /*target_chunk_size=*/512);
  builder.SetEncoding(0, ColumnEncoding::kDelta);
  builder.SetEncoding(1, ColumnEncoding::kRle);
  for (size_t i = 0; i < kRows; ++i) {
    FTS_CHECK(builder
                  .AppendRow({Value(static_cast<int64_t>(i)),
                              Value(static_cast<int64_t>(i % 2))})
                  .ok());
  }
  const TablePtr table = builder.Build();

  for (const bool fused : {true, false}) {
    auto lqp = ParseAndBuild(
        "SELECT COUNT(*) FROM t WHERE flag = 0 AND id >= 100 AND id < 200",
        table);
    OptimizerOptions optimizer_options;
    optimizer_options.enable_fusion = fused;
    ASSERT_TRUE(OptimizeLqp(&lqp, optimizer_options).ok());
    TranslatorOptions options;
    options.engine =
        fused ? ScanEngine::kScalarFused : ScanEngine::kSisdNoVec;
    const auto plan = TranslateLqp(lqp, options);
    ASSERT_TRUE(plan.ok());
    const auto result = ExecutePlan(*plan);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result->count, 50u) << "fused=" << fused;
  }
}

TEST(ExecutePlanTest, NoPredicates) {
  const TablePtr table = MakeSkewTable(123);
  auto lqp = ParseAndBuild("SELECT COUNT(*) FROM t", table);
  const auto plan = TranslateLqp(lqp);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->scan_steps.empty());
  const auto result = ExecutePlan(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->count, 123u);
}

}  // namespace
}  // namespace fts
