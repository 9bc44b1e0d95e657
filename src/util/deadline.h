#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "src/util/status.h"

/// \file deadline.h
/// Per-request deadlines and cooperative cancellation for the serving path.
///
/// A production wrapper deployment cannot let one pathological page occupy a
/// pool worker forever: every fixpoint loop in the library (the semi-naive
/// T_P rounds, the grounded engine's node sweep, the Horn propagation queue,
/// the native Elog pattern fixpoint) periodically polls an EvalControl and
/// unwinds with a typed kDeadlineExceeded / kCancelled status. The polling
/// is strided (EvalTicker) so the hot loops pay one decrement per item and
/// touch the clock only every few thousand items.

namespace mdatalog::util {

/// Shared cancellation flag. One token may be watched by many concurrent
/// requests (e.g. every page of one SubmitBatch); Cancel() is sticky.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// An absolute point in time after which a request must not keep computing.
/// Value type, cheap to copy. Default-constructed = no deadline.
class Deadline {
 public:
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline At(std::chrono::steady_clock::time_point t) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = t;
    return d;
  }
  template <typename Rep, typename Period>
  static Deadline After(std::chrono::duration<Rep, Period> d) {
    return At(std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  d));
  }

  bool has_deadline() const { return has_deadline_; }
  bool expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= at_;
  }
  std::chrono::steady_clock::time_point at() const { return at_; }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// The earlier of two deadlines; an absent deadline is later than any. The
/// QoS layer uses this to tighten (never loosen) a request's own deadline
/// when its tenant is over quota.
inline Deadline EarlierOf(const Deadline& a, const Deadline& b) {
  if (!a.has_deadline()) return b;
  if (!b.has_deadline()) return a;
  return a.at() <= b.at() ? a : b;
}

/// The control block threaded through evaluation: a deadline plus an
/// optional shared cancel token. Copyable view; the token (if any) must
/// outlive the evaluation, which the runtime guarantees by holding the
/// shared_ptr in the request closure.
///
/// All engine entry points accept `const EvalControl*` with nullptr meaning
/// "unbounded" — the pre-existing call sites pay nothing.
class EvalControl {
 public:
  EvalControl() = default;
  EvalControl(Deadline deadline, const CancelToken* cancel)
      : deadline_(deadline), cancel_(cancel) {}

  /// Full check: consults the cancel flag and the clock. Not for per-tuple
  /// loops — wrap in an EvalTicker there.
  Status Check() const {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Status::Cancelled("request cancelled");
    }
    if (deadline_.expired()) {
      return Status::DeadlineExceeded("request deadline exceeded");
    }
    return Status::OK();
  }

  /// True when every check would trivially pass — lets engines skip even the
  /// strided polling when no bound was requested.
  bool unbounded() const { return cancel_ == nullptr && !deadline_.has_deadline(); }

  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_{};
  const CancelToken* cancel_ = nullptr;
};

/// Strided poller for tight loops: Tick() is one decrement-and-branch; only
/// every `stride` calls does it run the real EvalControl::Check. A null
/// control compiles down to the same decrement with no clock access ever.
class EvalTicker {
 public:
  /// Default stride: at ~10ns/item the clock is touched every ~40µs, fine
  /// next to millisecond-scale deadlines.
  static constexpr uint32_t kDefaultStride = 4096;

  explicit EvalTicker(const EvalControl* control,
                      uint32_t stride = kDefaultStride)
      : control_(control != nullptr && !control->unbounded() ? control
                                                             : nullptr),
        stride_(stride),
        left_(stride) {}

  /// OK or the typed failure. Amortized cost: one predictable branch.
  Status Tick() {
    if (--left_ != 0 || control_ == nullptr) return Status::OK();
    left_ = stride_;
    return control_->Check();
  }

  /// True iff polling can ever fail (lets callers hoist the whole guard).
  bool active() const { return control_ != nullptr; }

 private:
  const EvalControl* control_;
  uint32_t stride_;
  uint32_t left_;
};

}  // namespace mdatalog::util
