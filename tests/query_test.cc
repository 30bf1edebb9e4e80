#include "query/executor.h"
#include "query/query.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace csod::query {
namespace {

// --- Parser ------------------------------------------------------------

TEST(QueryParserTest, ParsesThePaperTemplate) {
  auto parsed = ParseQuery(
      "SELECT Outlier 5 SUM(Score), Market, Vertical "
      "FROM Log_Streams PARAMS(2015-05-01, 2015-05-07) "
      "WHERE DataCentre = 'DC3' AND Market != 'pt-BR' "
      "GROUP BY Market, Vertical;");
  ASSERT_TRUE(parsed.ok());
  const Query& q = parsed.Value();
  EXPECT_EQ(q.kind, QueryKind::kOutlier);
  EXPECT_EQ(q.k, 5u);
  EXPECT_EQ(q.score_column, "Score");
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"Market", "Vertical"}));
  EXPECT_EQ(q.source, "Log_Streams");
  ASSERT_EQ(q.predicates.size(), 2u);
  EXPECT_EQ(q.predicates[0].column, "DataCentre");
  EXPECT_EQ(q.predicates[0].op, Predicate::Op::kEquals);
  EXPECT_EQ(q.predicates[0].value, "DC3");
  EXPECT_EQ(q.predicates[1].op, Predicate::Op::kNotEquals);
}

TEST(QueryParserTest, ParsesTopWithoutWhereOrParams) {
  auto parsed =
      ParseQuery("select top 10 sum(clicks) from events group by url");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.Value().kind, QueryKind::kTop);
  EXPECT_EQ(parsed.Value().k, 10u);
  EXPECT_TRUE(parsed.Value().predicates.empty());
  EXPECT_EQ(parsed.Value().group_by, (std::vector<std::string>{"url"}));
}

TEST(QueryParserTest, SelectListMayOmitAttributes) {
  auto parsed =
      ParseQuery("SELECT Outlier 3 SUM(s) FROM t GROUP BY a, b");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.Value().group_by, (std::vector<std::string>{"a", "b"}));
}

// strtoll clamps a K past LLONG_MAX to LLONG_MAX; the parser refuses it
// instead of running a query for K = 9223372036854775807.
TEST(QueryParserTest, RejectsOutOfRangeK) {
  const auto parsed =
      ParseQuery("SELECT Outlier 99999999999999999999 SUM(s) FROM t GROUP BY a");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("K is out of range"),
            std::string::npos)
      << parsed.status().message();
  EXPECT_TRUE(
      ParseQuery("SELECT Outlier 9223372036854775807 SUM(s) FROM t GROUP BY a")
          .ok());
}

TEST(QueryParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SELECT banana 5 SUM(s) FROM t GROUP BY a").ok());
  EXPECT_FALSE(ParseQuery("SELECT Outlier 0 SUM(s) FROM t GROUP BY a").ok());
  EXPECT_FALSE(ParseQuery("SELECT Outlier x SUM(s) FROM t GROUP BY a").ok());
  EXPECT_FALSE(ParseQuery("SELECT Outlier 5 SUM s FROM t GROUP BY a").ok());
  EXPECT_FALSE(ParseQuery("SELECT Outlier 5 SUM(s) FROM t").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT Outlier 5 SUM(s), b FROM t GROUP BY a").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT Outlier 5 SUM(s) FROM t WHERE a GROUP BY a").ok());
  EXPECT_FALSE(ParseQuery(
                   "SELECT Outlier 5 SUM(s) FROM t GROUP BY a extra junk")
                   .ok());
  EXPECT_FALSE(
      ParseQuery("SELECT Outlier 5 SUM(s) FROM t WHERE a = 'unterminated "
                 "GROUP BY a")
          .ok());
}

// --- Executor ----------------------------------------------------------

// Builds L node tables for the search-quality scenario: columns
// (Market, Vertical, DataCentre, Score). Key (mkt-X, web) accumulates a
// huge negative score; everything else sits near 200 per (market,
// vertical) pair spread over nodes.
std::vector<LogTable> MakeNodeTables() {
  std::vector<LogTable> tables(3);
  for (auto& table : tables) {
    table.columns = {"Market", "Vertical", "DataCentre", "Score"};
  }
  int row_id = 0;
  for (int market = 0; market < 20; ++market) {
    for (int vertical = 0; vertical < 5; ++vertical) {
      for (int node = 0; node < 3; ++node) {
        const std::string m = "mkt-" + std::to_string(market);
        const std::string v = "vert-" + std::to_string(vertical);
        const std::string dc = "DC" + std::to_string(node + 1);
        // Every (market, vertical) sums to exactly 600 across nodes...
        tables[node].AddRow({m, v, dc, "200"}).Check();
        ++row_id;
      }
    }
  }
  // ...except the planted outlier: (mkt-7, vert-2) gets -90000 at node 1.
  tables[1].AddRow({"mkt-7", "vert-2", "DC2", "-90000"}).Check();
  // And an excluded-by-WHERE row that would otherwise be the top outlier.
  tables[0].AddRow({"mkt-0", "vert-0", "DCX", "999999"}).Check();
  (void)row_id;
  return tables;
}

TEST(QueryExecutorTest, DistributedMatchesExact) {
  auto query = ParseQuery(
                   "SELECT Outlier 3 SUM(Score), Market, Vertical "
                   "FROM logs WHERE DataCentre != 'DCX' "
                   "GROUP BY Market, Vertical")
                   .MoveValue();
  const auto tables = MakeNodeTables();

  auto exact = ExecuteExact(query, tables).MoveValue();
  ExecutionOptions options;
  options.m = 60;
  options.seed = 5;
  options.iterations = 10;
  auto distributed = ExecuteDistributed(query, tables, options).MoveValue();

  ASSERT_FALSE(exact.rows.empty());
  ASSERT_FALSE(distributed.rows.empty());
  // The planted outlier tops both answers.
  EXPECT_EQ(exact.rows[0].group_key, "mkt-7|vert-2");
  EXPECT_EQ(distributed.rows[0].group_key, "mkt-7|vert-2");
  EXPECT_NEAR(distributed.rows[0].value, exact.rows[0].value, 1.0);
  EXPECT_NEAR(distributed.mode, 600.0, 1.0);
  // The WHERE clause removed the DCX row from consideration.
  for (const auto& row : exact.rows) {
    EXPECT_NE(row.value, 999999.0 + 600.0);
  }
  // Communication: well below shipping all keys.
  EXPECT_LT(distributed.bytes_shipped, distributed.bytes_all);
  EXPECT_EQ(distributed.key_space, 100u);
}

TEST(QueryExecutorTest, TopQueryRanksByValue) {
  auto query =
      ParseQuery("SELECT Top 2 SUM(Score), url FROM logs GROUP BY url")
          .MoveValue();
  std::vector<LogTable> tables(2);
  for (auto& table : tables) table.columns = {"url", "Score"};
  tables[0].AddRow({"a", "50"}).Check();
  tables[0].AddRow({"b", "500"}).Check();
  tables[1].AddRow({"b", "500"}).Check();
  tables[1].AddRow({"c", "3000"}).Check();
  tables[1].AddRow({"d", "1"}).Check();

  ExecutionOptions options;
  options.m = 4;
  options.iterations = 4;
  auto result = ExecuteDistributed(query, tables, options).MoveValue();
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].group_key, "c");
  EXPECT_EQ(result.rows[1].group_key, "b");
  EXPECT_NEAR(result.rows[0].value, 3000.0, 1.0);
  EXPECT_NEAR(result.rows[1].value, 1000.0, 1.0);
}

TEST(QueryExecutorTest, ErrorsSurfaceCleanly) {
  auto query =
      ParseQuery("SELECT Outlier 2 SUM(Score), g FROM t GROUP BY g")
          .MoveValue();

  // Missing column.
  std::vector<LogTable> missing(1);
  missing[0].columns = {"g", "NotScore"};
  missing[0].AddRow({"x", "1"}).Check();
  EXPECT_FALSE(ExecuteDistributed(query, missing, {}).ok());

  // Non-numeric score.
  std::vector<LogTable> bad_score(1);
  bad_score[0].columns = {"g", "Score"};
  bad_score[0].AddRow({"x", "not-a-number"}).Check();
  EXPECT_FALSE(ExecuteDistributed(query, bad_score, {}).ok());

  // Empty input.
  EXPECT_FALSE(ExecuteDistributed(query, {}, {}).ok());

  // WHERE filters everything.
  auto filtered =
      ParseQuery(
          "SELECT Outlier 2 SUM(Score), g FROM t WHERE g = 'absent' "
          "GROUP BY g")
          .MoveValue();
  std::vector<LogTable> tables(1);
  tables[0].columns = {"g", "Score"};
  tables[0].AddRow({"x", "1"}).Check();
  EXPECT_FALSE(ExecuteDistributed(filtered, tables, {}).ok());

  // m == 0.
  ExecutionOptions zero_m;
  zero_m.m = 0;
  EXPECT_FALSE(ExecuteDistributed(query, tables, zero_m).ok());
}

TEST(LogTableTest, AddRowValidatesArity) {
  LogTable table;
  table.columns = {"a", "b"};
  EXPECT_TRUE(table.AddRow({"1", "2"}).ok());
  EXPECT_FALSE(table.AddRow({"1"}).ok());
  EXPECT_FALSE(table.ColumnIndex("zzz").ok());
  EXPECT_EQ(table.ColumnIndex("b").Value(), 1u);
}

}  // namespace
}  // namespace csod::query
