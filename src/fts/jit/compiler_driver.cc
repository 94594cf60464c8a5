#include "fts/jit/compiler_driver.h"

#include <dirent.h>
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "fts/common/env.h"
#include "fts/common/fault_injection.h"
#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/obs/metrics.h"

namespace fts {
namespace {

// Reads a whole file; empty string when unreadable.
std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Bounded compiler-log excerpt for error messages.
std::string LogExcerpt(const std::string& log_path) {
  std::string log = ReadFileOrEmpty(log_path);
  if (log.size() > 2000) log.resize(2000);
  return log;
}

void SleepMillis(int64_t millis) {
  timespec ts;
  ts.tv_sec = millis / 1000;
  ts.tv_nsec = (millis % 1000) * 1000000;
  nanosleep(&ts, nullptr);
}

// Removes every entry directly inside `dir`, then `dir` itself. The
// compiler may leave files beyond the ones we created (e.g. partial
// objects), so the scratch directory is swept rather than removing a
// fixed file list.
void RemoveScratchDir(const std::string& dir) {
  if (dir.empty()) return;
  DIR* handle = opendir(dir.c_str());
  if (handle != nullptr) {
    while (dirent* entry = readdir(handle)) {
      const char* name = entry->d_name;
      if (strcmp(name, ".") == 0 || strcmp(name, "..") == 0) continue;
      std::remove((dir + "/" + name).c_str());
    }
    closedir(handle);
  }
  rmdir(dir.c_str());
}

// Deletes the scratch directory on scope exit unless told to keep it.
struct ScratchDirGuard {
  std::string path;
  bool keep = false;
  ~ScratchDirGuard() {
    if (!keep) RemoveScratchDir(path);
  }
};

// SIGKILLs the compiler's whole process group (the driver's cc1plus and
// as, or a wrapper script's children, die with it) and reaps the driver.
// SIGKILL is unblockable, so the blocking reap cannot hang.
void KillAndReap(pid_t pid, int* wait_status) {
  kill(-pid, SIGKILL);
  kill(pid, SIGKILL);
  waitpid(pid, wait_status, 0);
}

// Runs the external compiler: posix_spawn in a process group of its own
// with stdout+stderr redirected into `log_path` and TMPDIR pointed at
// `scratch_dir` (so the driver's temporary files are swept with it),
// transient spawn failures retried with exponential backoff, and a
// waitpid poll loop enforcing both the compile deadline and the owner's
// cancellation (SIGKILL of the group + reap on either, so no compiler
// process ever outlives the call). `child` reports the pid and whether it
// was killed/reaped, for the zombie-free assertions in tests.
//
// posix_spawn (a vfork-style clone in glibc) rather than fork: a fork
// would mark every page of a large process copy-on-write, and the query
// threads would then take a minor fault on each page they write next.
Status RunCompilerProcess(const std::vector<std::string>& command,
                          const std::string& scratch_dir,
                          const std::string& log_path,
                          const JitCompilerOptions& options, QueryContext* ctx,
                          JitCompiler::ChildStats* child) {
  std::vector<char*> argv;
  argv.reserve(command.size() + 1);
  for (const std::string& arg : command) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const std::string tmpdir = "TMPDIR=" + scratch_dir;
  std::vector<char*> envp;
  for (char** var = environ; *var != nullptr; ++var) {
    if (strncmp(*var, "TMPDIR=", 7) != 0) envp.push_back(*var);
  }
  envp.push_back(const_cast<char*>(tmpdir.c_str()));
  envp.push_back(nullptr);

  // The log is opened here, not as a spawn file action: posix_spawn would
  // report a failed open like a failed exec, and a missing compiler is
  // the one spawn failure that latches the JIT off. A log that cannot be
  // opened only leaves the compiler's output uncaptured.
  const int log_fd = open(log_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (log_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, log_fd, STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, log_fd, STDERR_FILENO);
  }
  // The compiler inherits no other descriptor of this process (a pipe it
  // held open would outlive a killed compiler in its grandchildren).
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 34))
  posix_spawn_file_actions_addclosefrom_np(&actions, STDERR_FILENO + 1);
#endif
  posix_spawnattr_t attributes;
  posix_spawnattr_init(&attributes);
  posix_spawnattr_setflags(&attributes, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attributes, 0);  // Lead a new group.

  pid_t pid = -1;
  int64_t backoff = options.retry_backoff_millis > 0
                        ? options.retry_backoff_millis
                        : 1;
  const int max_attempts =
      options.max_spawn_attempts > 0 ? options.max_spawn_attempts : 1;
  int spawn_errno = 0;
  int attempt = 1;
  for (;; ++attempt) {
    spawn_errno =
        FaultInjection::Instance().ShouldFail(kFaultJitSpawnTransient)
            ? EAGAIN
            : posix_spawnp(&pid, argv[0], &actions, &attributes,
                           argv.data(), envp.data());
    const bool transient = spawn_errno == EAGAIN || spawn_errno == ENOMEM;
    if (!transient || attempt >= max_attempts) break;
    SleepMillis(backoff);
    backoff *= 2;
  }
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attributes);
  if (log_fd >= 0) close(log_fd);
  if (spawn_errno == ENOENT || spawn_errno == EACCES ||
      spawn_errno == ENOEXEC) {
    return Status::Unavailable(StrFormat(
        "JIT compiler '%s' not executable: %s", command[0].c_str(),
        strerror(spawn_errno)));
  }
  if (spawn_errno != 0) {
    return Status::Internal(StrFormat(
        "cannot spawn JIT compiler '%s': %s (attempt %d of %d)",
        command[0].c_str(), strerror(spawn_errno), attempt, max_attempts));
  }

  child->pid = pid;

  Stopwatch stopwatch;
  int wait_status = 0;
  for (;;) {
    const pid_t done = waitpid(pid, &wait_status, WNOHANG);
    if (done == pid) {
      child->reaped = true;
      break;
    }
    if (done < 0) {
      return Status::Internal(
          StrFormat("waitpid(compiler) failed: %s", strerror(errno)));
    }
    // The owner was canceled (the JIT cache clearing or shutting down, or
    // a direct caller's query): the compile result can never be used, so
    // kill the child now rather than letting it burn the core until its
    // own timeout.
    const Status cancel = CheckCancellation(ctx);
    if (!cancel.ok()) {
      KillAndReap(pid, &wait_status);
      child->killed = true;
      child->reaped = true;
      obs::Metrics().jit_compiles_killed_total->Increment();
      return Status(cancel.code(),
                    cancel.message() + "; in-flight compiler process killed");
    }
    if (options.compile_timeout_millis > 0 &&
        stopwatch.ElapsedMillis() >
            static_cast<double>(options.compile_timeout_millis)) {
      KillAndReap(pid, &wait_status);
      child->killed = true;
      child->reaped = true;
      return Status::DeadlineExceeded(StrFormat(
          "JIT compilation exceeded %lld ms; compiler process killed",
          static_cast<long long>(options.compile_timeout_millis)));
    }
    SleepMillis(5);
  }

  if (WIFSIGNALED(wait_status)) {
    return Status::Internal(StrFormat(
        "JIT compiler terminated by signal %d:\n%s", WTERMSIG(wait_status),
        LogExcerpt(log_path).c_str()));
  }
  const int rc = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
  if (rc == 127) {
    return Status::Unavailable(StrFormat("JIT compiler '%s' not executable",
                                         command[0].c_str()));
  }
  if (rc != 0) {
    return Status::Internal(StrFormat("JIT compilation failed (rc=%d):\n%s",
                                      rc, LogExcerpt(log_path).c_str()));
  }
  return Status::Ok();
}

}  // namespace

JitModule::~JitModule() {
  if (handle_ != nullptr) dlclose(handle_);
}

JitCompiler::JitCompiler(JitCompilerOptions options)
    : options_(std::move(options)) {
  options_.compiler = GetEnvString("FTS_JIT_CXX", options_.compiler);
  options_.compile_timeout_millis = GetEnvInt64(
      "FTS_JIT_COMPILE_TIMEOUT_MS", options_.compile_timeout_millis);
  if (options_.work_dir.empty()) {
    options_.work_dir = GetEnvString("TMPDIR", "/tmp");
  }
}

StatusOr<std::shared_ptr<JitModule>> JitCompiler::Compile(
    const std::string& source, const std::string& symbol, QueryContext* ctx) {
  if (source.empty()) return Status::InvalidArgument("empty source");
  // A query canceled before the compile starts skips the spawn entirely
  // (nothing to kill, nothing to clean up).
  FTS_RETURN_IF_ERROR(CheckCancellation(ctx));

  FaultInjection& faults = FaultInjection::Instance();
  if (faults.ShouldFail(kFaultJitCompilerMissing)) {
    return Status::Unavailable(
        StrFormat("JIT compiler '%s' not executable (injected fault %s)",
                  options_.compiler.c_str(), kFaultJitCompilerMissing));
  }

  Stopwatch stopwatch;

  // Private scratch directory per compilation, removed on every exit path
  // (success or failure) unless artifacts were requested.
  std::string dir_template = options_.work_dir + "/fts-jit-XXXXXX";
  std::vector<char> dir_buffer(dir_template.begin(), dir_template.end());
  dir_buffer.push_back('\0');
  if (mkdtemp(dir_buffer.data()) == nullptr) {
    return Status::Internal(
        StrFormat("mkdtemp(%s) failed", dir_template.c_str()));
  }
  ScratchDirGuard scratch{std::string(dir_buffer.data()),
                          options_.keep_artifacts};
  const std::string src_path = scratch.path + "/scan.cpp";
  const std::string so_path = scratch.path + "/scan.so";
  const std::string log_path = scratch.path + "/compile.log";

  {
    std::ofstream out(src_path);
    if (!out) {
      return Status::Internal(StrFormat("cannot write %s", src_path.c_str()));
    }
    out << source;
  }

  if (faults.ShouldFail(kFaultJitCompileError)) {
    return Status::Internal(
        StrFormat("JIT compilation failed (injected fault %s)",
                  kFaultJitCompileError));
  }
  if (faults.ShouldFail(kFaultJitCompileTimeout)) {
    return Status::DeadlineExceeded(
        StrFormat("JIT compilation exceeded %lld ms (injected fault %s)",
                  static_cast<long long>(options_.compile_timeout_millis),
                  kFaultJitCompileTimeout));
  }

  std::vector<std::string> command;
  command.push_back(options_.compiler);
  for (const std::string& flag : Split(options_.flags, ' ')) {
    if (!flag.empty()) command.push_back(flag);
  }
  command.push_back("-o");
  command.push_back(so_path);
  command.push_back(src_path);
  ChildStats child;
  const Status run_status = RunCompilerProcess(command, scratch.path,
                                               log_path, options_, ctx,
                                               &child);
  if (child.pid > 0) RecordChild(child);
  FTS_RETURN_IF_ERROR(run_status);

  if (faults.ShouldFail(kFaultJitDlopenFail)) {
    return Status::Internal(StrFormat("dlopen failed (injected fault %s)",
                                      kFaultJitDlopenFail));
  }
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* error = dlerror();
    return Status::Internal(
        StrFormat("dlopen failed: %s", error != nullptr ? error : "?"));
  }
  void* resolved = dlsym(handle, symbol.c_str());
  if (faults.ShouldFail(kFaultJitSymbolMissing)) resolved = nullptr;
  if (resolved == nullptr) {
    dlclose(handle);
    return Status::Internal(StrFormat(
        "symbol '%s' not found in generated module", symbol.c_str()));
  }

  auto module = std::shared_ptr<JitModule>(new JitModule());
  module->handle_ = handle;
  module->symbol_ = resolved;
  module->compile_millis_ = stopwatch.ElapsedMillis();
  module->source_ = source;
  // The .so stays mapped via the dlopen handle; its directory entry can go
  // unless artifacts were requested (ScratchDirGuard handles both).
  return module;
}

}  // namespace fts
