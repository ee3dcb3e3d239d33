#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace lswc {

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = std::max(1u, num_threads);
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  // Workers keep popping until the queue is empty, so everything
  // submitted before this point still runs.
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
  if (first_exception_) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

unsigned ThreadPool::DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ set and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    // Nothing of the task may outlive the decrement below: once Wait()
    // returns, the waiter may free what the task captured, or read and
    // free the exception. So the task goes first, and this thread's
    // reference to the exception is handed over (or dropped) under the
    // lock.
    task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (thrown && !first_exception_) first_exception_ = std::move(thrown);
      thrown = nullptr;
      if (--pending_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace lswc
