#ifndef CSOD_QUERY_EXECUTOR_H_
#define CSOD_QUERY_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"

namespace csod::query {

/// \brief One node's slice of the log stream: named string columns plus
/// rows of cells. The score column holds decimal numbers.
struct LogTable {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;

  /// Index of a column, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Appends a row; must match the column count.
  Status AddRow(std::vector<std::string> row);
};

/// Tuning of the distributed execution.
struct ExecutionOptions {
  /// Per-node measurement budget M.
  size_t m = 400;
  /// Consensus seed for Φ0.
  uint64_t seed = 42;
  /// BOMP iterations; 0 = the paper's f(k).
  size_t iterations = 0;
};

/// One answer row.
struct ResultRow {
  /// The composite GROUP BY key, attributes joined with '|'.
  std::string group_key;
  /// Aggregated (recovered) SUM of the score column.
  double value = 0.0;
  /// |value - mode| for Outlier queries; == value for Top queries.
  double rank_score = 0.0;
};

/// Query answer plus execution telemetry.
struct QueryResult {
  std::vector<ResultRow> rows;
  /// Recovered mode (Outlier queries; 0 for Top).
  double mode = 0.0;
  /// Number of distinct composite keys N.
  size_t key_space = 0;
  /// Bytes the CS execution shipped (L * M * 8).
  uint64_t bytes_shipped = 0;
  /// Bytes the ALL baseline would ship (L * N * 8).
  uint64_t bytes_all = 0;
};

/// \brief Executes the parsed query with the paper's CS pipeline: each
/// node filters (WHERE), aggregates SUM(score) per composite GROUP BY key
/// against a consensus key dictionary, compresses to M measurements, and
/// the aggregator recovers the Outlier-K / Top-K answer with BOMP.
///
/// The consensus dictionary interns the union of the nodes' keys in node
/// order (in a deployment it is a shared catalog artifact).
Result<QueryResult> ExecuteDistributed(
    const Query& query, const std::vector<LogTable>& node_tables,
    const ExecutionOptions& options);

/// Exact centralized reference execution of the same query (ships
/// everything; used for validation and the accuracy baseline).
Result<QueryResult> ExecuteExact(const Query& query,
                                 const std::vector<LogTable>& node_tables);

}  // namespace csod::query

#endif  // CSOD_QUERY_EXECUTOR_H_
