#include "common/thread_pool.h"

#include <algorithm>

namespace hermes {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    tasks_.push_back(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) all_done_.Wait(&mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutting_down_ && tasks_.empty()) task_available_.Wait(&mu_);
      if (tasks_.empty()) return;  // shutting down and fully drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    bool all_done = false;
    {
      MutexLock lock(&mu_);
      all_done = --in_flight_ == 0;
    }
    // The destructor joins this thread, so all_done_ outlives the notify.
    if (all_done) all_done_.NotifyAll();
  }
}

}  // namespace hermes
