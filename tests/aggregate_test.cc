#include <gtest/gtest.h>

#include "fts/db/database.h"
#include "fts/sql/parser.h"
#include "fts/storage/table_builder.h"

namespace fts {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // v: 0..99; w: v * 2 as float64; flag: v % 2.
    TableBuilder builder({{"v", DataType::kInt32},
                          {"w", DataType::kFloat64},
                          {"flag", DataType::kInt32}});
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          builder.AppendRow({Value(i), Value(i * 2.0), Value(i % 2)}).ok());
    }
    ASSERT_TRUE(db_.RegisterTable("t", builder.Build()).ok());
  }

  Database db_;
};

TEST_F(AggregateTest, ParserAcceptsAggregates) {
  const auto statement = ParseSelect(
      "SELECT SUM(a), MIN(b), MAX(c), AVG(d), COUNT(*) FROM t");
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  ASSERT_EQ(statement->aggregates.size(), 5u);
  EXPECT_EQ(statement->aggregates[0].kind, AggregateKind::kSum);
  EXPECT_EQ(statement->aggregates[0].column, "a");
  EXPECT_EQ(statement->aggregates[4].kind, AggregateKind::kCountStar);
  EXPECT_FALSE(statement->count_star);  // Not the single-COUNT(*) case.
}

TEST_F(AggregateTest, ParserRejectsMixedProjection) {
  EXPECT_FALSE(ParseSelect("SELECT SUM(a), b FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(a) FROM t").ok());
}

TEST_F(AggregateTest, SumMinMaxAvg) {
  const auto result =
      db_.Query("SELECT SUM(v), MIN(v), MAX(v), AVG(v) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->column_names,
            (std::vector<std::string>{"SUM(v)", "MIN(v)", "MAX(v)",
                                      "AVG(v)"}));
  EXPECT_EQ(ValueAs<int64_t>(result->rows[0][0]), 4950);
  EXPECT_EQ(ValueAs<int>(result->rows[0][1]), 0);
  EXPECT_EQ(ValueAs<int>(result->rows[0][2]), 99);
  EXPECT_DOUBLE_EQ(ValueAs<double>(result->rows[0][3]), 49.5);
}

TEST_F(AggregateTest, AggregatesRespectPredicates) {
  const auto result = db_.Query(
      "SELECT SUM(v), COUNT(*) FROM t WHERE flag = 1 AND v < 10");
  ASSERT_TRUE(result.ok());
  // Odd v below 10: 1+3+5+7+9 = 25, five rows.
  EXPECT_EQ(ValueAs<int64_t>(result->rows[0][0]), 25);
  EXPECT_EQ(ValueAs<uint64_t>(result->rows[0][1]), 5u);
}

TEST_F(AggregateTest, FloatAggregates) {
  const auto result =
      db_.Query("SELECT SUM(w), AVG(w) FROM t WHERE v >= 98");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(ValueAs<double>(result->rows[0][0]), 98.0 * 2 + 99.0 * 2);
  EXPECT_DOUBLE_EQ(ValueAs<double>(result->rows[0][1]), 197.0);
}

TEST_F(AggregateTest, EmptyMatchNullSemantics) {
  // SQL semantics over zero matched rows: MIN/MAX/AVG are NULL, SUM stays
  // a typed 0, COUNT(*) a plain 0 — on both the pushed-down and the
  // unpushed paths.
  for (const bool pushdown : {true, false}) {
    Database::QueryOptions options;
    options.aggregate_pushdown = pushdown;
    const auto result = db_.Query(
        "SELECT SUM(v), MIN(v), MAX(v), AVG(v), COUNT(*) FROM t "
        "WHERE v > 1000",
        options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<Value>& row = result->rows[0];
    EXPECT_FALSE(IsNull(row[0])) << "pushdown=" << pushdown;
    EXPECT_EQ(ValueAs<int64_t>(row[0]), 0);
    EXPECT_TRUE(IsNull(row[1])) << "pushdown=" << pushdown;
    EXPECT_TRUE(IsNull(row[2])) << "pushdown=" << pushdown;
    EXPECT_TRUE(IsNull(row[3])) << "pushdown=" << pushdown;
    EXPECT_FALSE(IsNull(row[4]));
    EXPECT_EQ(ValueAs<uint64_t>(row[4]), 0u);
    // NULL cells render as the literal "NULL" in result tables.
    EXPECT_EQ(ValueToString(row[1]), "NULL");
    EXPECT_NE(result->ToString().find("NULL"), std::string::npos);
  }
}

TEST_F(AggregateTest, ContradictionShortCircuitsAggregates) {
  const auto result = db_.Query(
      "SELECT SUM(v), MIN(v), COUNT(*) FROM t WHERE v = 1 AND v = 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ValueAs<int64_t>(result->rows[0][0]), 0);
  EXPECT_TRUE(IsNull(result->rows[0][1]));
  EXPECT_EQ(result->matched_rows, 0u);
}

TEST_F(AggregateTest, TpchQ6Shape) {
  // The paper's motivating query computes SUM over a 3-predicate chain.
  const auto result = db_.Query(
      "SELECT SUM(v) FROM t WHERE v >= 10 AND v < 20 AND flag = 0");
  ASSERT_TRUE(result.ok());
  // Even v in [10, 20): 10+12+14+16+18 = 70.
  EXPECT_EQ(ValueAs<int64_t>(result->rows[0][0]), 70);
  const auto explain =
      db_.Explain("SELECT SUM(v) FROM t WHERE v >= 10 AND v < 20 "
                  "AND flag = 0");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("Aggregate: SUM(v)"), std::string::npos);
  EXPECT_NE(explain->find("FusedScan"), std::string::npos);
}

TEST_F(AggregateTest, OrderByAscendingAndDescending) {
  const auto asc = db_.Query(
      "SELECT v FROM t WHERE v >= 95 ORDER BY v");
  ASSERT_TRUE(asc.ok());
  ASSERT_EQ(asc->RowCountOut(), 5u);
  EXPECT_EQ(ValueAs<int>(asc->ValueAt(0, 0)), 95);
  EXPECT_EQ(ValueAs<int>(asc->ValueAt(4, 0)), 99);

  const auto desc = db_.Query(
      "SELECT v FROM t WHERE v >= 95 ORDER BY v DESC");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(ValueAs<int>(desc->ValueAt(0, 0)), 99);
  EXPECT_EQ(ValueAs<int>(desc->ValueAt(4, 0)), 95);
}

TEST_F(AggregateTest, Limit) {
  const auto result =
      db_.Query("SELECT v FROM t ORDER BY v DESC LIMIT 3");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->RowCountOut(), 3u);
  EXPECT_EQ(ValueAs<int>(result->ValueAt(0, 0)), 99);
  EXPECT_EQ(ValueAs<int>(result->ValueAt(2, 0)), 97);
  // matched_rows reports the pre-LIMIT match count.
  EXPECT_EQ(result->matched_rows, 100u);
}

TEST_F(AggregateTest, OrderByMustBeProjected) {
  EXPECT_FALSE(db_.Query("SELECT v FROM t ORDER BY w").ok());
  EXPECT_TRUE(db_.Query("SELECT v, w FROM t ORDER BY w").ok());
}

TEST_F(AggregateTest, OrderByUnknownColumnRejected) {
  EXPECT_FALSE(db_.Query("SELECT v FROM t ORDER BY zzz").ok());
}

TEST_F(AggregateTest, StatementToStringRoundTrips) {
  for (const char* sql :
       {"SELECT SUM(v), AVG(w) FROM t WHERE v < 5",
        "SELECT v FROM t ORDER BY v DESC LIMIT 7"}) {
    const auto statement = ParseSelect(sql);
    ASSERT_TRUE(statement.ok()) << sql;
    const auto reparsed = ParseSelect(statement->ToString());
    ASSERT_TRUE(reparsed.ok()) << statement->ToString();
    EXPECT_EQ(reparsed->ToString(), statement->ToString());
  }
}

}  // namespace
}  // namespace fts
