#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace oxmlc::util {

std::size_t resolve_threads(std::size_t requested, std::size_t items) {
  std::size_t threads =
      requested != 0 ? requested
                     : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  threads = std::min(threads, items != 0 ? items : std::size_t{1});
  return std::max<std::size_t>(1, threads);
}

std::size_t resolve_chunk(std::size_t items, std::size_t threads) {
  return std::max<std::size_t>(1, items / (threads * 8));
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers = resolve_threads(threads, n);
  const std::size_t chunk = resolve_chunk(n, workers);

  if (workers <= 1) {
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      body(begin, std::min(begin + chunk, n));
    }
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&] {
    try {
      while (!failed.load(std::memory_order_acquire)) {
        const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) break;
        body(begin, std::min(begin + chunk, n));
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_release);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  } catch (...) {
    // A failed spawn must not destroy the running workers unjoined.
    failed.store(true, std::memory_order_release);
    for (std::thread& started : pool) started.join();
    throw;
  }
  for (std::thread& started : pool) started.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace oxmlc::util
