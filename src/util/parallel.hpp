#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <latch>
#include <memory>
#include <vector>

#include "util/thread_pool.hpp"

namespace exawatt::util {

/// Parallel index loop over [0, n): `fn(i)` for each i, chunked across the
/// pool. The caller claims chunks beside at most `pool.size() - 1` helper
/// tasks and waits only for chunks already running, so it may nest inside
/// a pool task without deadlock. Returns once every claimed chunk ended,
/// rethrowing the first exception (chunks not started by then are
/// skipped). Serial for a one-worker pool or n <= 1.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn,
                  ThreadPool& pool = ThreadPool::global()) {
  const std::size_t workers = pool.size();
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t target = std::min(workers * 4, n);
  const std::size_t step = (n + target - 1) / target;
  const std::size_t chunks = (n + step - 1) / step;

  // Helpers share the state: one may start after the caller returned,
  // find nothing to claim, and must not touch the caller's frame.
  struct State {
    explicit State(std::size_t chunks)
        : ended(static_cast<std::ptrdiff_t>(chunks)) {}
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::latch ended;
    std::exception_ptr error;
  };
  const auto state = std::make_shared<State>(chunks);
  const auto claim = [state, n, step, chunks, &fn] {
    for (;;) {
      const std::size_t c = state->next.fetch_add(1);
      if (c >= chunks) return;
      if (!state->failed.load()) {
        try {
          const std::size_t end = std::min(n, (c + 1) * step);
          for (std::size_t i = c * step; i < end; ++i) fn(i);
        } catch (...) {
          // Only the first failure writes `error`; the latch publishes it.
          if (!state->failed.exchange(true)) {
            state->error = std::current_exception();
          }
        }
      }
      state->ended.count_down();
    }
  };
  for (std::size_t h = 1; h < std::min(workers, chunks); ++h) {
    pool.submit(claim);
  }
  claim();
  state->ended.wait();
  if (state->error) std::rethrow_exception(state->error);
}

/// Parallel map: returns {fn(0), ..., fn(n-1)} preserving order.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn,
                  ThreadPool& pool = ThreadPool::global())
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, pool);
  return out;
}

/// Parallel tree reduction: maps fn over [0, n) then merges with `merge`.
/// `merge(acc, value)` must be associative. `init` is the identity.
template <typename Fn, typename R, typename Merge>
R parallel_reduce(std::size_t n, R init, Fn&& fn, Merge&& merge,
                  ThreadPool& pool = ThreadPool::global()) {
  auto parts = parallel_map(n, std::forward<Fn>(fn), pool);
  R acc = std::move(init);
  for (auto& p : parts) acc = merge(std::move(acc), std::move(p));
  return acc;
}

}  // namespace exawatt::util
