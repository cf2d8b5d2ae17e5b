// Fixed-size worker pool for shared-nothing parallel fan-out.
//
// DSE sweeps evaluate many independent, deterministically-seeded
// simulations (one fresh cluster per operating point), so they
// parallelize with no shared mutable state: each task writes only its own
// result slot. A fleet run reuses one pool for its lookahead windows:
// each window submits one task per busy chip (tens of microseconds to
// milliseconds of simulation) and barriers once. The pool is deliberately
// minimal — a locked FIFO queue, so idle workers claim the next task one
// at a time, and a wait_idle() barrier (tens of microseconds on a few
// threads) — which is cheap next to a window's work but not next to a
// single quantum's.
//
// Every `threads` argument in the library means the same thing: a
// positive value is the worker count, 0 is the default, which comes from
// the NTSERV_THREADS environment variable, falling back to the hardware
// concurrency (resolve_threads).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ntserv::sim {

class ThreadPool {
 public:
  explicit ThreadPool(int threads = default_threads()) {
    if (threads < 1) threads = 1;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one task. Tasks must not throw; wrap anything that can (the
  /// sweep drivers capture exceptions into an std::exception_ptr slot).
  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_task_.notify_one();
  }

  /// Block until the queue is empty and every worker is idle.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }

  /// Run body(i) for i in [0, n) on the pool and barrier: submit all,
  /// wait_idle, rethrow the first captured exception. A live pool is
  /// reused, so callers with a per-step fan-out (a fleet run fans out
  /// every lookahead window) pay a submit + barrier, not a pool
  /// construction. Each index must write only its own state.
  template <typename Body>
  void run_indexed(std::size_t n, Body&& body) {
    std::mutex err_mu;
    std::exception_ptr err;
    for (std::size_t i = 0; i < n; ++i) {
      submit([&body, &err_mu, &err, i] {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!err) err = std::current_exception();
        }
      });
    }
    wait_idle();
    if (err) std::rethrow_exception(err);
  }

  /// Worker count from NTSERV_THREADS, else the hardware concurrency.
  static int default_threads() {
    if (const char* env = std::getenv("NTSERV_THREADS")) {
      const int n = std::atoi(env);
      if (n >= 1) return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and drained
        task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_;
      }
      cv_idle_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  int active_ = 0;
  bool stop_ = false;
};

/// The worker count a `threads` argument asks for: the value itself when
/// positive, otherwise ThreadPool::default_threads() (NTSERV_THREADS).
/// Every `threads` argument in the library resolves through here.
[[nodiscard]] inline int resolve_threads(int threads) {
  return threads > 0 ? threads : ThreadPool::default_threads();
}

/// Run body(i) for i in [0, n) on min(resolve_threads(threads), n)
/// workers: inline when that is one, otherwise through run_indexed on a
/// fresh pool (the first exception is rethrown after the barrier). This
/// is the shared-nothing fan-out every sweep driver uses — each index
/// must write only its own result slot.
template <typename Body>
void parallel_for_index(int threads, std::size_t n, Body&& body) {
  const std::size_t workers =
      std::min(static_cast<std::size_t>(resolve_threads(threads)), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool{static_cast<int>(workers)};
  pool.run_indexed(n, body);
}

}  // namespace ntserv::sim
