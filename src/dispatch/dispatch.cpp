#include "dispatch/dispatch.h"

#include <optional>

#include "kernel/kernel.h"

namespace cycada::dispatch {

DispatchQueue::DispatchQueue(std::string label, Kind kind, int worker_count)
    : label_(std::move(label)), kind_(kind) {
  const int count = kind_ == Kind::kSerial ? 1 : std::max(1, worker_count);
  workers_.reserve(count);
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DispatchQueue::~DispatchQueue() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void DispatchQueue::async(std::function<void()> work) {
  Job job;
  job.work = std::move(work);
  // GCD semantics: the job inherits the submitting thread's EAGL context,
  // and with it the session that context lives in.
  job.submitter_context = ios_gl::EAGLContext::current_context();
  job.submitter_session = core::Session::bound();
  {
    std::lock_guard lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  wake_.notify_one();
}

void DispatchQueue::sync(std::function<void()> work) {
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  async([&, work = std::move(work)] {
    work();
    std::lock_guard lock(done_mutex);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return done; });
}

void DispatchQueue::drain() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return jobs_.empty() && running_jobs_ == 0; });
}

void DispatchQueue::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return shutting_down_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // shutting down
      job = std::move(jobs_.front());
      jobs_.pop_front();
      ++running_jobs_;
    }
    {
      // The job, its make-current and its restore run in the submitter's
      // session, whose kernel knows this worker as an iOS-persona thread.
      std::optional<core::SessionScope> session;
      if (job.submitter_session != nullptr) {
        session.emplace(*job.submitter_session);
      }
      kernel::Kernel::instance().register_current_thread(
          kernel::Persona::kIos);
      // Adopt the submitter's context: on Cycada this routes the replica's
      // TLS binding onto this thread (aegl_bridge_set_tls), and every GLES
      // call the job makes impersonates the context's creator (paper §7).
      ios_gl::EAGLContext::Ref previous =
          ios_gl::EAGLContext::current_context();
      if (job.submitter_context != nullptr) {
        ios_gl::EAGLContext::set_current_context(job.submitter_context);
      }
      job.work();
      ios_gl::EAGLContext::set_current_context(previous);
    }
    {
      std::lock_guard lock(mutex_);
      --running_jobs_;
      ++completed_;
      if (jobs_.empty() && running_jobs_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace cycada::dispatch
