#pragma once
/// \file fiber.hpp
/// Cooperative fibers underpinning the simulator. Each simulated baby-core
/// kernel runs on its own fiber; the scheduler switches between fibers only
/// at simulation API calls, making runs fully deterministic and independent
/// of host thread timing. A fiber is entered once through
/// makecontext/swapcontext; every later switch is a _setjmp/_longjmp pair,
/// which (unlike swapcontext) makes no signal-mask syscall.

#include <csetjmp>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#include "ttsim/common/check.hpp"

namespace ttsim::sim {

/// Thrown through a parked fiber's yield point by Fiber::cancel() so the
/// fiber's stack unwinds (destructors run) at teardown. Caught and discarded
/// by the fiber trampoline; never escapes to the scheduler.
struct FiberCancelled {};

/// A single cooperative fiber. Not movable once started (the context captures
/// the stack address).
class Fiber {
 public:
  /// \param entry    Function executed on the fiber's stack.
  /// \param stack_bytes Stack size; kernels using deep recursion should raise it.
  explicit Fiber(std::function<void()> entry, std::size_t stack_bytes = 128 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the caller (scheduler or another fiber) into the fiber.
  /// Returns when the fiber yields or finishes. Must not be called
  /// re-entrantly.
  void resume();

  /// Switch from inside the fiber back to its resumer. Only callable on the
  /// fiber itself.
  void yield();

  bool finished() const { return finished_; }

  /// Rethrows any exception that escaped the fiber entry function.
  void rethrow_if_failed();

  /// Unwind a started-but-unfinished fiber: resume it one last time with
  /// FiberCancelled thrown from its yield point, so every object on its
  /// stack destructs. Used at engine teardown for processes parked forever
  /// (deadlocked or halted kernels on a wedged device). No-op when the fiber
  /// never started or already finished; must not be called from inside.
  void cancel();

  /// The fiber currently executing on this thread, or nullptr when in the
  /// scheduler.
  static Fiber* current();

 private:
  static void trampoline(unsigned hi, unsigned lo);
  [[noreturn]] void run();

  std::function<void()> entry_;
  struct StackUnmapper {
    std::size_t bytes;
    void operator()(char* stack) const;
  };
  std::size_t stack_bytes_;
  std::unique_ptr<char, StackUnmapper> stack_;
  std::jmp_buf fiber_jb_{};    ///< where yield() parked the fiber
  std::jmp_buf resumer_jb_{};  ///< where the latest resume() waits
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
  bool cancel_requested_ = false;
  std::exception_ptr error_;
  // ASan fiber-switch bookkeeping (see fiber.cpp; unused without ASan).
  void* asan_fake_stack_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;
  // TSan fiber contexts (see fiber.cpp; unused without TSan).
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace ttsim::sim
