#ifndef FTS_JIT_COMPILER_DRIVER_H_
#define FTS_JIT_COMPILER_DRIVER_H_

#include <sys/types.h>

#include <memory>
#include <mutex>
#include <string>

#include "fts/common/query_context.h"
#include "fts/common/status.h"

namespace fts {

// Fault-injection points (fts/common/fault_injection.h) exercised by the
// compiler driver; arm them via FTS_FAULT to simulate every way the JIT
// path can fail in production without breaking the real toolchain.
inline constexpr char kFaultJitCompilerMissing[] = "jit.compiler_missing";
inline constexpr char kFaultJitCompileError[] = "jit.compile_error";
inline constexpr char kFaultJitCompileTimeout[] = "jit.compile_timeout";
inline constexpr char kFaultJitSpawnTransient[] = "jit.spawn_transient";
inline constexpr char kFaultJitDlopenFail[] = "jit.dlopen_fail";
inline constexpr char kFaultJitSymbolMissing[] = "jit.symbol_missing";

// A loaded shared object produced by the JIT. Owns the dlopen handle; the
// resolved symbol stays valid for the module's lifetime.
class JitModule {
 public:
  ~JitModule();
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;

  // Raw function pointer for `symbol` passed at compile time.
  void* symbol_address() const { return symbol_; }

  // Wall-clock cost of the external compiler + dlopen, for the Section V
  // discussion ("we do not see the additional compile time as a deciding
  // bottleneck" when operators are cached).
  double compile_millis() const { return compile_millis_; }

  const std::string& source() const { return source_; }

 private:
  friend class JitCompiler;
  JitModule() = default;

  void* handle_ = nullptr;
  void* symbol_ = nullptr;
  double compile_millis_ = 0.0;
  std::string source_;
};

// Options for the external-compiler JIT backend. The paper's Section V
// weighs C++ vs LLVM IR vs ASM for generation and picks C++ ("easier to
// write and maintain"); this driver realizes that choice: generated C++ is
// compiled by the system compiler into a shared object and dlopen()ed.
struct JitCompilerOptions {
  // Compiler binary; overridden by the FTS_JIT_CXX environment variable.
  std::string compiler = "g++";
  // Flags for the generated TU. The AVX-512 sources need the f/bw/dq/vl
  // sets; -O3 matches the paper's build.
  std::string flags =
      "-std=c++20 -O3 -shared -fPIC -mavx512f -mavx512bw -mavx512dq "
      "-mavx512vl";
  // Directory for temporary artifacts; empty = /tmp.
  std::string work_dir;
  // Keep the .cpp/.so/compile log on disk (debugging) — on failure too.
  bool keep_artifacts = false;
  // Wall-clock budget for one compiler invocation. On expiry the compiler
  // process is SIGKILLed and reaped (no orphans) and Compile returns
  // kDeadlineExceeded. Overridden by FTS_JIT_COMPILE_TIMEOUT_MS; <= 0
  // disables the deadline.
  int64_t compile_timeout_millis = 30000;
  // Bounded retry for transient spawn failures (fork reporting EAGAIN or
  // ENOMEM under load): total attempts, and the backoff before the first
  // retry (doubled after each).
  int max_spawn_attempts = 3;
  int64_t retry_backoff_millis = 10;
};

class JitCompiler {
 public:
  explicit JitCompiler(JitCompilerOptions options = JitCompilerOptions());

  // waitpid bookkeeping for the most recent child compiler process this
  // driver spawned. Tests assert the cancellation path leaves no zombies:
  // after a canceled compile, `killed` and `reaped` are both true and
  // kill(pid, 0) reports ESRCH.
  struct ChildStats {
    pid_t pid = -1;
    bool killed = false;  // SIGKILLed by deadline/cancellation.
    bool reaped = false;  // waitpid() collected the exit status.
  };

  // Compiles `source` and resolves `symbol`. Error surface:
  //   kUnavailable      — the compiler binary cannot be executed;
  //   kDeadlineExceeded — the compiler exceeded compile_timeout_millis (or
  //                       the query's deadline fired mid-compile) and was
  //                       killed;
  //   kQueryCanceled    — `ctx` was canceled mid-compile; the compiler's
  //                       process group was SIGKILLed and the compiler
  //                       reaped;
  //   kInternal         — compile error (with the compiler's stderr),
  //                       dlopen or symbol-resolution failure.
  // Scratch artifacts are removed on every path unless keep_artifacts —
  // including the kill paths, so a canceled query orphans no files.
  // `ctx` (nullable) is polled between waitpid probes, so an in-flight
  // compiler dies within one poll interval of cancellation.
  StatusOr<std::shared_ptr<JitModule>> Compile(const std::string& source,
                                               const std::string& symbol,
                                               QueryContext* ctx = nullptr);

  ChildStats last_child() const {
    std::lock_guard<std::mutex> lock(child_mutex_);
    return last_child_;
  }

  const JitCompilerOptions& options() const { return options_; }

 private:
  void RecordChild(const ChildStats& child) {
    std::lock_guard<std::mutex> lock(child_mutex_);
    last_child_ = child;
  }

  JitCompilerOptions options_;
  mutable std::mutex child_mutex_;
  ChildStats last_child_;
};

}  // namespace fts

#endif  // FTS_JIT_COMPILER_DRIVER_H_
