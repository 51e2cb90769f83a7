// A Grand Central Dispatch-style work queue (paper §7): asynchronous jobs
// "implicitly take on the GLES and EAGL context of the thread that submitted
// the asynchronous job". Each job runs in its submitter's session, on a
// worker registered with that session's kernel in the iOS persona, with
// the submitter's EAGLContext adopted for its duration — which, on Cycada,
// impersonates the context's creator on every GLES call the job makes.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "ios_gl/eagl.h"

namespace cycada::dispatch {

class DispatchQueue {
 public:
  enum class Kind { kSerial, kConcurrent };

  explicit DispatchQueue(std::string label, Kind kind = Kind::kSerial,
                         int worker_count = 2);
  ~DispatchQueue();
  DispatchQueue(const DispatchQueue&) = delete;
  DispatchQueue& operator=(const DispatchQueue&) = delete;

  const std::string& label() const { return label_; }

  // Enqueues `work`; it runs on a queue thread bound to the submitter's
  // session with the submitter's current EAGLContext adopted (GCD
  // semantics).
  void async(std::function<void()> work);
  // Enqueues and waits for completion.
  void sync(std::function<void()> work);
  // Blocks until everything enqueued so far has run.
  void drain();

  std::uint64_t jobs_completed() const { return completed_; }

 private:
  struct Job {
    std::function<void()> work;
    ios_gl::EAGLContext::Ref submitter_context;
    core::Session* submitter_session = nullptr;  // nullptr: unbound
  };

  void worker_loop();

  const std::string label_;
  const Kind kind_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<Job> jobs_;
  std::vector<std::thread> workers_;
  int running_jobs_ = 0;
  std::uint64_t completed_ = 0;
  bool shutting_down_ = false;
};

}  // namespace cycada::dispatch
