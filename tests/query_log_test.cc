// Tests for the always-on query statistics layer (DESIGN.md §15): SQL
// digesting, the fixed-capacity query ring (wraparound, snapshot ordering,
// concurrent writers), JSON rendering, and the slow-query JSONL log.

#include "fts/obs/query_log.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mini_json.h"

namespace fts::obs {
namespace {

using fts::testing::JsonValue;
using fts::testing::ParseJson;

TEST(SqlDigestTest, ReplacesLiteralsAndCollapsesWhitespace) {
  EXPECT_EQ(SqlDigest("SELECT COUNT(*) FROM t WHERE c0 = 5 AND c1 = 123"),
            "SELECT COUNT(*) FROM t WHERE c0 = ? AND c1 = ?");
  EXPECT_EQ(SqlDigest("SELECT  *   FROM\tt\nWHERE x < 10"),
            "SELECT * FROM t WHERE x < ?");
  EXPECT_EQ(SqlDigest("SELECT * FROM t WHERE name = 'alice'"),
            "SELECT * FROM t WHERE name = ?");
}

TEST(SqlDigestTest, KeepsIdentifierTailDigits) {
  // Digits that are part of an identifier (c0, t2) are structure, not
  // literals; only standalone numbers become '?'.
  EXPECT_EQ(SqlDigest("SELECT c0 FROM t2 WHERE c0 = 7"),
            "SELECT c0 FROM t2 WHERE c0 = ?");
}

TEST(SqlDigestTest, CapsLength) {
  const std::string digest = SqlDigest(std::string(4000, 'x'));
  EXPECT_EQ(digest.size(), 160u);  // hard cap, truncated
}

TEST(QueryLogTest, RecordsAndSnapshotsNewestFirst) {
  QueryLog log(8);
  for (int i = 0; i < 3; ++i) {
    QueryLogEntry entry;
    entry.digest = "q" + std::to_string(i);
    entry.status = "ok";
    log.Record(std::move(entry));
  }
  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_EQ(log.capacity(), 8u);

  const std::vector<QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].digest, "q2");  // newest first
  EXPECT_EQ(entries[2].digest, "q0");
  // Ids are monotone and wall time was stamped.
  EXPECT_GT(entries[0].id, entries[2].id);
  EXPECT_GT(entries[0].wall_unix_micros, 0);
}

TEST(QueryLogTest, RingWrapsToCapacityKeepingNewest) {
  QueryLog log(4);
  for (int i = 0; i < 11; ++i) {
    QueryLogEntry entry;
    entry.digest = "q" + std::to_string(i);
    log.Record(std::move(entry));
  }
  EXPECT_EQ(log.total_recorded(), 11u);
  const std::vector<QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 4u);  // capacity, not total
  EXPECT_EQ(entries[0].digest, "q10");
  EXPECT_EQ(entries[3].digest, "q7");  // oldest retained = total - capacity
}

TEST(QueryLogTest, SnapshotHonorsMaxEntries) {
  QueryLog log(8);
  for (int i = 0; i < 6; ++i) log.Record(QueryLogEntry{});
  EXPECT_EQ(log.Snapshot(2).size(), 2u);
  EXPECT_EQ(log.Snapshot(0).size(), 6u);
  EXPECT_EQ(log.Snapshot(100).size(), 6u);
}

TEST(QueryLogTest, ConcurrentWritersNeverTearAndCountExactly) {
  // A small ring under many writers: slots are claimed by atomic id and
  // written under per-slot locks, so every retained entry must be
  // internally consistent (digest matches the writer-thread tag) and the
  // lifetime count must be exact. Run under TSan via the concurrency
  // label.
  QueryLog log(16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryLogEntry entry;
        entry.digest = "writer" + std::to_string(t);
        entry.rows_scanned = static_cast<uint64_t>(t);
        entry.status = "ok";
        log.Record(std::move(entry));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(log.total_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const std::vector<QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 16u);
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    EXPECT_GT(entries[i].id, entries[i + 1].id);  // strictly newest-first
  }
  for (const QueryLogEntry& entry : entries) {
    // Untorn: the digest's writer tag agrees with rows_scanned.
    EXPECT_EQ(entry.digest,
              "writer" + std::to_string(entry.rows_scanned));
  }
}

TEST(QueryLogTest, RenderJsonParsesWithSchema) {
  QueryLog log(4);
  QueryLogEntry entry;
  entry.digest = "SELECT COUNT(*) FROM t WHERE c0 = ?";
  entry.status = "ok";
  entry.engine = "jit";
  entry.counter_source = "hardware";
  entry.total_millis = 1.5;
  entry.rows_scanned = 1000;
  entry.rows_matched = 10;
  entry.model_active = true;
  entry.est_error_permille = 42;
  log.Record(std::move(entry));

  const auto parsed = ParseJson(log.RenderJson());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->array.size(), 1u);
  const JsonValue& q = parsed->array[0];
  ASSERT_NE(q.Find("digest"), nullptr);
  EXPECT_EQ(q.Find("digest")->string, "SELECT COUNT(*) FROM t WHERE c0 = ?");
  EXPECT_EQ(q.Find("status")->string, "ok");
  EXPECT_EQ(q.Find("engine")->string, "jit");
  EXPECT_EQ(q.Find("counter_source")->string, "hardware");
  EXPECT_EQ(q.Find("rows_scanned")->number, 1000.0);
  EXPECT_EQ(q.Find("est_error_permille")->number, 42.0);
  EXPECT_TRUE(q.Find("model_active")->boolean);
}

TEST(QueryLogTest, SlowQueryLogWritesJsonLinesAboveThreshold) {
  const std::string path =
      ::testing::TempDir() + "/fts_slow_query_test.jsonl";
  std::remove(path.c_str());
  {
    QueryLog log(8, /*slow_threshold_ms=*/2.0, path);
    QueryLogEntry fast;
    fast.digest = "fast";
    fast.total_millis = 0.5;
    log.Record(std::move(fast));
    QueryLogEntry slow;
    slow.digest = "slow";
    slow.total_millis = 7.25;
    slow.status = "ok";
    log.Record(std::move(slow));
  }
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "slow-query log was not created at " << path;
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  // Exactly one line (the fast query stayed out), valid JSON, with the
  // slow query's fields.
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  contents.pop_back();
  EXPECT_EQ(contents.find('\n'), std::string::npos);
  const auto parsed = ParseJson(contents);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("digest")->string, "slow");
  EXPECT_EQ(parsed->Find("total_millis")->number, 7.25);
}

TEST(QueryLogTest, GlobalInstanceIsUsableAndStable) {
  QueryLog& global = QueryLog::Global();
  EXPECT_EQ(&QueryLog::Global(), &global);
  EXPECT_GE(global.capacity(), 1u);
}

}  // namespace
}  // namespace fts::obs
