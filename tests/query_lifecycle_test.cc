// Query lifecycle hardening tests: QueryContext deadline/cancel/budget
// semantics, the admission controller's bounded run queue, the compiler
// driver's kill-and-reap path for in-flight compiles (also when the JIT
// cache clears or the process exits with a compile running), and end-to-end
// deadline / cancellation / memory-budget behavior through Database::Query.

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fts/common/fault_injection.h"
#include "fts/common/query_context.h"
#include "fts/db/database.h"
#include "fts/exec/admission.h"
#include "fts/jit/compiler_driver.h"
#include "fts/jit/jit_cache.h"
#include "fts/storage/data_generator.h"

namespace fts {
namespace {

// --- QueryContext ----------------------------------------------------------

TEST(QueryContextTest, IdsAreUniqueAndIncreasing) {
  const auto a = QueryContext::Create();
  const auto b = QueryContext::Create();
  EXPECT_LT(a->id(), b->id());
}

TEST(QueryContextTest, UncancelledChecksPass) {
  QueryContext ctx;
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_TRUE(ctx.CheckCancelled().ok());
  EXPECT_TRUE(ctx.CancelStatus().ok());
  EXPECT_EQ(ctx.checks(), 1u);
}

TEST(QueryContextTest, CancelFlipsOnceFirstWins) {
  QueryContext ctx;
  ctx.Cancel(StatusCode::kQueryCanceled);
  EXPECT_TRUE(ctx.cancelled());
  // A later deadline firing must not overwrite the explicit cancel.
  ctx.Cancel(StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.CheckCancelled().code(), StatusCode::kQueryCanceled);
  EXPECT_EQ(ctx.CancelStatus().code(), StatusCode::kQueryCanceled);
}

TEST(QueryContextTest, ExpiredDeadlineCaughtLazily) {
  QueryContext ctx;
  ctx.SetDeadlineMillis(1);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_EQ(ctx.deadline_millis(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // No timer wheel involved: the boundary check itself reads the clock.
  const Status status = ctx.CheckCancelled();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("deadline"), std::string::npos);
}

TEST(QueryContextTest, RemainingMillisInfiniteWithoutDeadline) {
  QueryContext ctx;
  EXPECT_TRUE(std::isinf(ctx.RemainingMillis()));
  ctx.SetDeadlineMillis(10000);
  EXPECT_GT(ctx.RemainingMillis(), 0.0);
  EXPECT_LE(ctx.RemainingMillis(), 10000.0);
}

TEST(QueryContextTest, CancelAtCheckFiresOnNthBoundary) {
  QueryContext ctx;
  ctx.CancelAtCheck(3);
  EXPECT_TRUE(ctx.CheckCancelled().ok());
  EXPECT_TRUE(ctx.CheckCancelled().ok());
  EXPECT_EQ(ctx.CheckCancelled().code(), StatusCode::kQueryCanceled);
  EXPECT_TRUE(ctx.cancelled());
}

TEST(QueryContextTest, MemoryBudgetReserveRelease) {
  QueryContext ctx;
  ctx.SetMemoryBudget(100);
  EXPECT_TRUE(ctx.ReserveMemory(60).ok());
  EXPECT_EQ(ctx.memory_reserved(), 60u);
  const Status over = ctx.ReserveMemory(50);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.memory_reserved(), 60u);  // Failed reserve rolled back.
  ctx.ReleaseMemory(60);
  EXPECT_EQ(ctx.memory_reserved(), 0u);
  EXPECT_TRUE(ctx.ReserveMemory(100).ok());
  EXPECT_EQ(ctx.memory_peak(), 100u);
  ctx.ReleaseMemory(100);
}

TEST(QueryContextTest, ScopedReservationReleasesOnDestruction) {
  QueryContext ctx;
  ctx.SetMemoryBudget(100);
  {
    ScopedMemoryReservation reservation;
    EXPECT_TRUE(reservation.Reserve(&ctx, 80).ok());
    EXPECT_EQ(ctx.memory_reserved(), 80u);
  }
  EXPECT_EQ(ctx.memory_reserved(), 0u);
}

TEST(QueryContextTest, AllocFaultPointFails) {
  QueryContext ctx;  // No budget at all: the fault alone must fire.
  ScopedFault fault(kFaultAlloc);
  const Status status = ctx.ReserveMemory(16);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("fault injection"), std::string::npos);
}

// --- Admission controller --------------------------------------------------

AdmissionOptions SmallAdmission(int max_concurrent, int queue_depth) {
  AdmissionOptions options;
  options.max_concurrent = max_concurrent;
  options.queue_depth = queue_depth;
  return options;
}

TEST(AdmissionTest, ImmediateAdmitBelowLimit) {
  AdmissionController controller(SmallAdmission(2, 2));
  auto a = controller.Admit(nullptr);
  auto b = controller.Admit(nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->queue_wait_micros(), 0);
  EXPECT_EQ(controller.stats().running, 2);
  b->Release();
  a->Release();
  EXPECT_EQ(controller.stats().running, 0);
}

TEST(AdmissionTest, QueuedQueryAdmittedOnRelease) {
  AdmissionController controller(SmallAdmission(1, 1));
  auto first = controller.Admit(nullptr);
  ASSERT_TRUE(first.ok());

  QueryContext ctx;
  StatusOr<AdmissionController::Ticket> second =
      Status::Internal("not yet run");
  std::thread waiter([&] { second = controller.Admit(&ctx); });
  while (controller.stats().waiting == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  first->Release();
  waiter.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->queue_wait_micros(), 0);
  EXPECT_GT(ctx.queue_wait_micros(), 0);
  EXPECT_EQ(controller.stats().queued, 1u);
}

TEST(AdmissionTest, QueueFullRejectsTyped) {
  AdmissionController controller(SmallAdmission(1, 1));
  auto running = controller.Admit(nullptr);
  ASSERT_TRUE(running.ok());

  QueryContext queued_ctx;
  StatusOr<AdmissionController::Ticket> queued =
      Status::Internal("not yet run");
  std::thread waiter([&] { queued = controller.Admit(&queued_ctx); });
  while (controller.stats().waiting == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Queue depth 1 is taken: the next arrival is rejected immediately.
  QueryContext rejected_ctx;
  const auto rejected = controller.Admit(&rejected_ctx);
  EXPECT_EQ(rejected.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_NE(rejected.status().message().find("admission queue full"),
            std::string::npos);
  EXPECT_EQ(controller.stats().rejected, 1u);

  running->Release();
  waiter.join();
  ASSERT_TRUE(queued.ok());
}

TEST(AdmissionTest, CanceledWaiterLeavesQueue) {
  AdmissionController controller(SmallAdmission(1, 4));
  auto running = controller.Admit(nullptr);
  ASSERT_TRUE(running.ok());

  QueryContext ctx;
  StatusOr<AdmissionController::Ticket> queued =
      Status::Internal("not yet run");
  std::thread waiter([&] { queued = controller.Admit(&ctx); });
  while (controller.stats().waiting == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ctx.Cancel(StatusCode::kQueryCanceled);
  waiter.join();
  EXPECT_EQ(queued.status().code(), StatusCode::kQueryCanceled);
  EXPECT_EQ(controller.stats().waiting, 0);
  // The slot is still usable afterwards.
  running->Release();
  auto next = controller.Admit(nullptr);
  EXPECT_TRUE(next.ok());
}

TEST(AdmissionTest, ExpiredDeadlineWaiterLeavesQueueAsDeadline) {
  AdmissionController controller(SmallAdmission(1, 4));
  auto running = controller.Admit(nullptr);
  ASSERT_TRUE(running.ok());

  QueryContext ctx;
  ctx.SetDeadlineMillis(5);  // Expires while queued; lazy check catches it.
  const auto queued = controller.Admit(&ctx);
  EXPECT_EQ(queued.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Compiler kill & reap --------------------------------------------------

class CompileKillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_dir_ = ::testing::TempDir() + "fts_compile_kill";
    ::mkdir(work_dir_.c_str(), 0755);
    // A fake "compiler" that hangs: the only way Compile() finishes
    // quickly is by killing it.
    script_ = work_dir_ + "/slow_cxx.sh";
    std::ofstream out(script_);
    out << "#!/bin/sh\nsleep 600\n";
    out.close();
    ::chmod(script_.c_str(), 0755);
  }

  // fts-jit-* scratch dirs left in work_dir_ (must be none after a kill).
  std::vector<std::string> ScratchDirs() const {
    std::vector<std::string> dirs;
    DIR* dir = ::opendir(work_dir_.c_str());
    if (dir == nullptr) return dirs;
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.rfind("fts-jit-", 0) == 0) dirs.push_back(name);
    }
    ::closedir(dir);
    return dirs;
  }

  // A fake compiler `name` that records its pid in `pid_file`, then hangs.
  std::string PidRecordingScript(const std::string& name,
                                 const std::string& pid_file) const {
    const std::string script = work_dir_ + "/" + name + ".sh";
    std::remove(pid_file.c_str());
    {
      std::ofstream out(script);
      out << "#!/bin/sh\necho $$ > " << pid_file << "\nsleep 600\n";
    }
    ::chmod(script.c_str(), 0755);
    return script;
  }

  JitCompilerOptions Options() const {
    JitCompilerOptions options;
    options.compiler = script_;
    options.work_dir = work_dir_;
    options.compile_timeout_millis = 60000;  // Cancel must win, not this.
    return options;
  }

  std::string work_dir_;
  std::string script_;
};

TEST_F(CompileKillTest, CancelKillsAndReapsInFlightCompile) {
  if (::getenv("FTS_JIT_CXX") != nullptr) {
    GTEST_SKIP() << "FTS_JIT_CXX overrides the compiler under test";
  }
  JitCompiler compiler(Options());
  QueryContext ctx;
  // Check 1 passes (pre-spawn); the first waitpid poll cancels, so the
  // hung child is SIGKILLed within one poll interval — deterministically,
  // no timer race.
  ctx.CancelAtCheck(2);

  const auto started = std::chrono::steady_clock::now();
  const auto result = compiler.Compile("int x;", "unused_symbol", &ctx);
  const auto elapsed = std::chrono::steady_clock::now() - started;

  EXPECT_EQ(result.status().code(), StatusCode::kQueryCanceled);
  EXPECT_LT(elapsed, std::chrono::seconds(30));  // Not the sleep 600.

  // waitpid bookkeeping: the child was killed AND reaped — no zombie.
  const JitCompiler::ChildStats child = compiler.last_child();
  ASSERT_GT(child.pid, 0);
  EXPECT_TRUE(child.killed);
  EXPECT_TRUE(child.reaped);
  errno = 0;
  EXPECT_EQ(::kill(child.pid, 0), -1);
  EXPECT_EQ(errno, ESRCH) << "compiler process " << child.pid
                          << " still exists (zombie or unreaped)";

  // And no orphaned scratch artifacts.
  EXPECT_TRUE(ScratchDirs().empty());
}

TEST_F(CompileKillTest, PreCancelledContextNeverSpawns) {
  if (::getenv("FTS_JIT_CXX") != nullptr) {
    GTEST_SKIP() << "FTS_JIT_CXX overrides the compiler under test";
  }
  JitCompiler compiler(Options());
  QueryContext ctx;
  ctx.Cancel(StatusCode::kQueryCanceled);
  const auto result = compiler.Compile("int x;", "unused_symbol", &ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kQueryCanceled);
  EXPECT_EQ(compiler.last_child().pid, -1);  // No process was spawned.
  EXPECT_TRUE(ScratchDirs().empty());
}

// --- No orphans from the JIT cache's compile worker ------------------------

JitScanSignature SleepySignature() {
  JitScanSignature signature;
  signature.stages.push_back({ScanElementType::kI32, CompareOp::kEq, 0});
  signature.register_bits = 512;
  return signature;
}

// Polls for up to 10 s; true once `path` exists.
bool AwaitFile(const std::string& path) {
  for (int i = 0; i < 10000; ++i) {
    if (::access(path.c_str(), F_OK) == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST_F(CompileKillTest, ClearKillsTheRunningCompile) {
  if (::getenv("FTS_JIT_CXX") != nullptr) {
    GTEST_SKIP() << "FTS_JIT_CXX overrides the compiler under test";
  }
  if (FaultInjection::Instance().AnyArmed()) {
    GTEST_SKIP() << "fault injection armed via FTS_FAULT";
  }
  const std::string pid_file = work_dir_ + "/clear_cxx.pid";
  JitCacheOptions options;
  options.compiler = Options();
  options.compiler.compiler = PidRecordingScript("clear_cxx", pid_file);
  JitCache cache(options);
  const auto entry = cache.Lookup(SleepySignature());
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_EQ(entry->fn, nullptr);
  EXPECT_TRUE(entry->queued);

  // The worker's compiler is running once it has recorded its pid.
  ASSERT_TRUE(AwaitFile(pid_file));
  ASSERT_EQ(ScratchDirs().size(), 1u);

  cache.Clear();
  const JitCompiler::ChildStats child = cache.compiler().last_child();
  ASSERT_GT(child.pid, 0);
  EXPECT_TRUE(child.killed);
  EXPECT_TRUE(child.reaped);
  errno = 0;
  EXPECT_EQ(::kill(child.pid, 0), -1);
  EXPECT_EQ(errno, ESRCH) << "compiler process " << child.pid
                          << " outlived Clear()";
  EXPECT_TRUE(ScratchDirs().empty());

  // A compile killed by Clear() poisons nothing: the signature queues
  // again (and the cache's destructor kills that compile too).
  const auto again = cache.Lookup(SleepySignature());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->queued);
}

TEST_F(CompileKillTest, ProcessExitKillsTheRunningCompile) {
  if (::getenv("FTS_JIT_CXX") != nullptr) {
    GTEST_SKIP() << "FTS_JIT_CXX overrides the compiler under test";
  }
  if (FaultInjection::Instance().AnyArmed()) {
    GTEST_SKIP() << "fault injection armed via FTS_FAULT";
  }
  const std::string pid_file = work_dir_ + "/exit_cxx.pid";
  const std::string script = PidRecordingScript("exit_cxx", pid_file);

  // The child process queues a compile on the process-wide cache (which
  // is never destroyed) and exits while the compiler runs. Threadsafe
  // style re-executes the test binary, so the child's global cache is
  // created fresh, with the hanging compiler.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("FTS_JIT_CXX", script.c_str(), 1);
        ::setenv("TMPDIR", work_dir_.c_str(), 1);
        if (!GlobalJitCache().Lookup(SleepySignature()).ok()) std::_Exit(2);
        if (!AwaitFile(pid_file)) std::_Exit(3);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");

  std::ifstream in(pid_file);
  pid_t pid = -1;
  in >> pid;
  ASSERT_GT(pid, 0);
  errno = 0;
  EXPECT_EQ(::kill(pid, 0), -1);
  EXPECT_EQ(errno, ESRCH) << "compiler process " << pid
                          << " outlived its process";
  EXPECT_TRUE(ScratchDirs().empty());
}

// --- Database end-to-end ---------------------------------------------------

class QueryLifecycleDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScanTableOptions options;
    options.rows = 200000;
    options.chunk_size = 65536;  // 4 chunks: several morsel boundaries.
    options.selectivities = {0.2, 0.5};
    options.seed = 17;
    generated_ = MakeScanTable(options);
    ASSERT_TRUE(db_.RegisterTable("tbl", generated_.table).ok());
  }

  Database db_;
  GeneratedScanTable generated_;
  const std::string sql_ = "SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2";
};

TEST_F(QueryLifecycleDbTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  // Arm the deadline on an external context and let it expire before the
  // query starts — deterministic, no dependence on scan duration.
  Database::QueryOptions options;
  options.context = QueryContext::Create();
  options.context->SetDeadlineMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto result = db_.Query(sql_, options);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos);
}

TEST_F(QueryLifecycleDbTest, PreCancelledContextReturnsCanceled) {
  Database::QueryOptions options;
  options.context = QueryContext::Create();
  options.context->Cancel(StatusCode::kQueryCanceled);
  const auto result = db_.Query(sql_, options);
  EXPECT_EQ(result.status().code(), StatusCode::kQueryCanceled);
}

TEST_F(QueryLifecycleDbTest, CancelAtBoundaryMidScan) {
  Database::QueryOptions options;
  options.context = QueryContext::Create();
  options.context->CancelAtCheck(5);
  const auto result = db_.Query(sql_, options);
  EXPECT_EQ(result.status().code(), StatusCode::kQueryCanceled);
  // The engine stays fully usable for the next query.
  const auto retry = db_.Query(sql_);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry->count, generated_.stage_matches.back());
}

TEST_F(QueryLifecycleDbTest, TinyMemoryBudgetFailsTyped) {
  Database::QueryOptions options;
  options.memory_budget_bytes = 64;  // Far below one chunk's pos list.
  const auto result =
      db_.Query("SELECT c0 FROM tbl WHERE c0 = 5 AND c1 = 2", options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("memory budget"),
            std::string::npos);
  // Generous budget: same query succeeds and reports peak usage.
  Database::QueryOptions roomy;
  roomy.memory_budget_bytes = 1ull << 30;
  roomy.context = QueryContext::Create();
  const auto ok = db_.Query("SELECT c0 FROM tbl WHERE c0 = 5 AND c1 = 2",
                            roomy);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(roomy.context->memory_peak(), 0u);
  EXPECT_EQ(roomy.context->memory_reserved(), 0u);  // All released.
}

TEST_F(QueryLifecycleDbTest, AllocFaultFailsScanTyped) {
  ScopedFault fault(kFaultAlloc);
  Database::QueryOptions options;
  options.context = QueryContext::Create();  // Context without a budget.
  const auto result =
      db_.Query("SELECT c0 FROM tbl WHERE c0 = 5 AND c1 = 2", options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(QueryLifecycleDbTest, DeadlineSurfacesInExplainAnalyze) {
  Database::QueryOptions options;
  options.deadline_millis = 60000;  // Generous: the query completes.
  const auto result = db_.Query("EXPLAIN ANALYZE " + sql_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->explain_text.find("Deadline: 60000 ms"),
            std::string::npos)
      << result->explain_text;
  EXPECT_NE(result->explain_text.find("QueueWait:"), std::string::npos);
}

TEST_F(QueryLifecycleDbTest, NoDeadlineStillRendersMarkers) {
  const auto result = db_.Query("EXPLAIN ANALYZE " + sql_);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->explain_text.find("Deadline: none"), std::string::npos);
  EXPECT_NE(result->explain_text.find("QueueWait:"), std::string::npos);
}

TEST_F(QueryLifecycleDbTest, ParallelScanHonorsDeadlineQuickly) {
  // 4-thread scan with an already-expired deadline must abort at the
  // first morsel boundaries and return promptly.
  Database::QueryOptions options;
  options.threads = 4;
  options.context = QueryContext::Create();
  options.context->SetDeadlineMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto started = std::chrono::steady_clock::now();
  const auto result = db_.Query(sql_, options);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace fts
