#include "exec/executor.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace econcast::exec {

namespace {
// Depth of Executor::work_on frames on this thread — covers pool workers AND
// the submitting thread while it participates in a batch, so nested
// parallel_for calls from either are detected and run inline.
// NOLINT-DETERMINISM(thread-local): nesting-depth flag, not RNG or result
// state — it only routes nested parallel_for calls to the inline path.
thread_local int t_work_depth = 0;

struct WorkDepthScope {
  WorkDepthScope() noexcept { ++t_work_depth; }
  ~WorkDepthScope() noexcept { --t_work_depth; }
};
}  // namespace

bool on_executor_thread() noexcept { return t_work_depth > 0; }

Executor::Executor(std::size_t num_threads) {
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw > 0 ? hw : 1;
  }
  workers_.reserve(num_threads);
  try {
    for (std::size_t t = 0; t < num_threads; ++t)
      workers_.emplace_back([this] { worker_main(); });
  } catch (...) {
    // Partial construction: stop and join what exists before rethrowing, or
    // the thread destructors call std::terminate.
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      stop_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    throw;
  }
}

Executor::~Executor() {
  // Taking submit_mu_ first guarantees no batch is in flight (parallel_for
  // holds it for the whole batch), so workers are all parked on pool_cv_.
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stop_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

Executor& Executor::shared() {
  // Intentionally leaked: worker threads must not be joined from a static
  // destructor racing other exit-time teardown.
  static Executor* const instance = new Executor();
  return *instance;
}

void Executor::worker_main() {
  std::unique_lock<std::mutex> lock(pool_mu_);
  for (;;) {
    pool_cv_.wait(lock, [&] { return stop_ || current_batch_ != nullptr; });
    if (stop_) return;
    Batch* batch = current_batch_;
    const std::uint64_t gen = batch_gen_;

    // Take a participant slot and bump `inside` while still under pool_mu_.
    // The submitter retires the batch under the same mutex and only then
    // waits for `inside` to drain, so either we are counted before the
    // retire or we observe current_batch_ == nullptr — never a join after
    // the submitter stopped waiting. A batch whose cursor already reached
    // the end has nothing left to claim, so there is no point joining it.
    bool joined = false;
    {
      std::lock_guard<std::mutex> state(batch->state_mu);
      if (batch->seats > 0 && batch->next < batch->n) {
        --batch->seats;
        ++batch->inside;
        joined = true;
      }
    }
    if (joined) {
      lock.unlock();
      work_on(*batch);
      lock.lock();
    }
    // Sleep until this batch is retired so a full or drained batch is not
    // re-examined in a hot loop.
    pool_cv_.wait(lock, [&] { return stop_ || batch_gen_ != gen; });
    if (stop_) return;
  }
}

void Executor::run_serial(std::size_t n, const TaskFn& fn,
                          const ProgressFn& progress) {
  // The serial path may hold submit_mu_; mark task context so a task that
  // nests parallel_for is inlined here too instead of deadlocking on it.
  const WorkDepthScope in_task_context;
  for (std::size_t i = 0; i < n; ++i) {
    fn(i);
    if (progress) progress(TaskProgress{i, i + 1, n});
  }
}

void Executor::parallel_for(std::size_t n, const TaskFn& fn,
                            std::size_t max_parallelism,
                            const ProgressFn& progress) {
  if (n == 0) return;
  if (on_executor_thread()) {
    // Nested call from inside one of our tasks: blocking on submit_mu_ from
    // a worker would deadlock (the outer batch holds it), so run inline.
    run_serial(n, fn, progress);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  std::size_t participants = workers_.size() + 1;  // workers + this thread
  if (max_parallelism > 0)
    participants = std::min(participants, max_parallelism);
  participants = std::min(participants, n);
  if (participants <= 1) {
    run_serial(n, fn, progress);
    return;
  }

  Batch batch;
  batch.n = n;
  batch.fn = &fn;
  batch.progress = progress ? &progress : nullptr;
  batch.seats = participants - 1;
  batch.inside = 1;  // the submitting thread

  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    current_batch_ = &batch;
    ++batch_gen_;
  }
  pool_cv_.notify_all();

  work_on(batch);

  // Retire the batch BEFORE waiting for it to drain: workers join (and bump
  // `inside`) only while holding pool_mu_ with current_batch_ still set, so
  // after this block every participant is accounted for in `inside` and no
  // late joiner can touch the stack-allocated Batch.
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    current_batch_ = nullptr;
    ++batch_gen_;
  }
  pool_cv_.notify_all();
  {
    std::unique_lock<std::mutex> state(batch.state_mu);
    batch.state_cv.wait(state, [&] { return batch.inside == 0; });
  }

  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

std::exception_ptr Executor::run_task(Batch& b, std::size_t index) {
  try {
    (*b.fn)(index);
    if (b.progress) {
      // Serialized: `done` advances by exactly one per callback, and the
      // callback body (e.g. SweepSession's checkpoint writer) can touch
      // shared state without its own lock.
      std::lock_guard<std::mutex> lock(b.progress_mu);
      ++b.done;
      (*b.progress)(TaskProgress{index, b.done, b.n});
    }
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

void Executor::work_on(Batch& b) {
  const WorkDepthScope in_task_context;
  std::unique_lock<std::mutex> state(b.state_mu);
  while (b.next < b.n) {
    const std::size_t index = b.next++;
    state.unlock();
    std::exception_ptr error = run_task(b, index);
    state.lock();
    if (error) {
      // Abandon the unclaimed tail; tasks already claimed still finish.
      if (!b.first_error) b.first_error = std::move(error);
      b.next = b.n;
    }
  }
  if (--b.inside == 0) b.state_cv.notify_all();
}

}  // namespace econcast::exec
