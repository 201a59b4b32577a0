// A full disk for one test scope, shared by test_trace_cache and test_serve.
#pragma once

#include <sys/resource.h>

#include <csignal>

namespace msehsim::testing {

/// Simulates a full disk for this process: writes past @p bytes fail with
/// EFBIG instead of raising SIGXFSZ. Restores the limit and the signal
/// disposition on scope exit.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &old_limit_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = old_limit_;
    lowered.rlim_cur = bytes;
    ok_ = ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~ScopedFileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_limit_);
    std::signal(SIGXFSZ, old_handler_);
  }
  ScopedFileSizeLimit(const ScopedFileSizeLimit&) = delete;
  ScopedFileSizeLimit& operator=(const ScopedFileSizeLimit&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  rlimit old_limit_{};
  void (*old_handler_)(int){};
  bool ok_{false};
};

}  // namespace msehsim::testing
