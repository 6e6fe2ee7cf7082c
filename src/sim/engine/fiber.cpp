// A fortified _longjmp (__longjmp_chk) aborts on a jump to a lower stack
// address unless it runs on a sigaltstack, which rules out switching between
// fiber stacks. Undefined before the first include so it never takes effect.
#undef _FORTIFY_SOURCE

#include "ttsim/sim/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>

#include <cstdint>
#include <cstdlib>

// ASan tracks one stack per thread; without annotations, a context switch
// onto a fiber stack (or an exception thrown on one — __asan_handle_no_return
// unpoisons what it believes is "the" stack) produces false positives and
// crashes. The start/finish pair below tells ASan about every switch. The
// declarations are spelled out instead of including
// <sanitizer/common_interface_defs.h> so non-sanitized builds never look for
// the header.
#if defined(__SANITIZE_ADDRESS__)
#define TTSIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TTSIM_ASAN_FIBERS 1
#endif
#endif

#ifdef TTSIM_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old, size_t* size_old);
}
#endif

// TSan's model is different: one shadow context per fiber, created/destroyed
// explicitly, with __tsan_switch_to_fiber called immediately before each
// switch. Without it TSan attributes the fiber's accesses to the scheduler's
// stack and dies on its own bookkeeping. TSan also intercepts
// _setjmp/_longjmp and files each jmp_buf under the current fiber context,
// so every _setjmp below runs before the __tsan_switch_to_fiber that leaves
// its side, and every _longjmp after the one that enters the target's side.
// The simulator is single-threaded; the annotations only keep TSan's
// per-"thread" state coherent so the rest of the build (host code, future
// threaded frontends) can be checked.
#if defined(__SANITIZE_THREAD__)
#define TTSIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TTSIM_TSAN_FIBERS 1
#endif
#endif

#ifdef TTSIM_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace ttsim::sim {
namespace {
thread_local Fiber* t_current_fiber = nullptr;

// Stacks are mapped directly instead of coming from the heap: a mapping goes
// back to the OS when its fiber dies, and pages a kernel never touches never
// become resident. Heap stacks fragment the heap (after the first free,
// glibc's dynamic mmap threshold serves 128 KiB blocks from it), so a
// process that builds one engine after another grows with every engine.
char* map_stack(std::size_t bytes) {
  void* stack = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  TTSIM_CHECK_MSG(stack != MAP_FAILED, "cannot map a " << bytes << "-byte fiber stack");
  return static_cast<char*>(stack);
}
}  // namespace

void Fiber::StackUnmapper::operator()(char* stack) const { munmap(stack, bytes); }

Fiber::Fiber(std::function<void()> entry, std::size_t stack_bytes)
    : entry_(std::move(entry)), stack_bytes_(stack_bytes) {
  TTSIM_CHECK(entry_ != nullptr);
  TTSIM_CHECK(stack_bytes_ >= 16 * 1024);
  stack_ = {map_stack(stack_bytes_), StackUnmapper{stack_bytes_}};
}

Fiber::~Fiber() {
  // A fiber destroyed mid-flight would leak whatever is on its stack; the
  // engine destroys fibers only after completion — at teardown it first
  // unwinds parked fibers via cancel(). Nothing to do beyond freeing memory.
#ifdef TTSIM_TSAN_FIBERS
  if (tsan_fiber_) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

Fiber* Fiber::current() { return t_current_fiber; }

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  self->run();
}

void Fiber::run() {
#ifdef TTSIM_ASAN_FIBERS
  // First activation: complete the resumer's start_switch and remember its
  // stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &asan_caller_bottom_,
                                  &asan_caller_size_);
#endif
  try {
    entry_();
  } catch (const FiberCancelled&) {
    // Teardown unwind requested by cancel(); not an error.
  } catch (...) {
    error_ = std::current_exception();
  }
  finished_ = true;
#ifdef TTSIM_ASAN_FIBERS
  // Final exit: null fake_stack_save destroys the fiber's fake stack.
  __sanitizer_start_switch_fiber(nullptr, asan_caller_bottom_,
                                 asan_caller_size_);
#endif
#ifdef TTSIM_TSAN_FIBERS
  // Final exit switches back to the resumer's context; the fiber's own
  // context is destroyed with the Fiber object.
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
  // Leave via an explicit switch rather than returning through the
  // trampoline: the sanitizer annotations above must sit at the real switch
  // point. TSan in particular maintains a per-context shadow call stack via
  // function entry/exit hooks — unwinding run() and the trampoline after the
  // switch annotation would pop those frames on the *resumer's* shadow stack
  // and corrupt it. Nothing on this stack needs destructing any more.
  _longjmp(resumer_jb_, 1);
}

void Fiber::resume() {
  TTSIM_CHECK_MSG(!running_, "fiber resumed re-entrantly");
  TTSIM_CHECK_MSG(!finished_, "resume() on a finished fiber");
  // First entry only: a context that starts run() on the fiber's stack. It
  // is built and switched to in this frame rather than a helper's: the
  // switching frame is left by _longjmp, and under ASan an abandoned helper
  // frame would leave its stack poison behind on the resumer's stack.
  ucontext_t entry_ctx;
  if (!started_) {
    TTSIM_CHECK(getcontext(&entry_ctx) == 0);
    entry_ctx.uc_stack.ss_sp = stack_.get();
    entry_ctx.uc_stack.ss_size = stack_bytes_;
    entry_ctx.uc_link = nullptr;  // run() never returns; it leaves by _longjmp
    const auto ptr = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&entry_ctx, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xFFFFFFFFu));
  }
  Fiber* prev = t_current_fiber;
  t_current_fiber = this;
  running_ = true;
#ifdef TTSIM_ASAN_FIBERS
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack, stack_.get(),
                                 stack_bytes_);
#endif
  // The resumer's side is re-captured every time: a fiber may be resumed
  // from different points (scheduler, nested resumes) across its life, and
  // yield() must return to the latest one.
  if (_setjmp(resumer_jb_) == 0) {
#ifdef TTSIM_TSAN_FIBERS
    if (!tsan_fiber_) tsan_fiber_ = __tsan_create_fiber(0);
    tsan_caller_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
    if (started_) _longjmp(fiber_jb_, 1);
    started_ = true;
    // Returns only if the switch failed: the fiber comes back through
    // resumer_jb_, and the context saved in `unused` is never resumed.
    ucontext_t unused;
    swapcontext(&unused, &entry_ctx);
    std::abort();
  }
#ifdef TTSIM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
  running_ = false;
  t_current_fiber = prev;
}

void Fiber::yield() {
  TTSIM_CHECK_MSG(t_current_fiber == this, "yield() called from outside the fiber");
#ifdef TTSIM_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&asan_fake_stack_, asan_caller_bottom_,
                                 asan_caller_size_);
#endif
  if (_setjmp(fiber_jb_) == 0) {
#ifdef TTSIM_TSAN_FIBERS
    __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
    _longjmp(resumer_jb_, 1);
  }
#ifdef TTSIM_ASAN_FIBERS
  // Re-entered: refresh the resumer's bounds (the next yield switches back
  // to wherever resume() is running now).
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_caller_bottom_,
                                  &asan_caller_size_);
#endif
  if (cancel_requested_) throw FiberCancelled{};
}

void Fiber::cancel() {
  TTSIM_CHECK_MSG(!running_, "cancel() called from inside the fiber");
  if (!started_ || finished_) return;
  cancel_requested_ = true;
  resume();
  TTSIM_CHECK_MSG(finished_, "cancelled fiber blocked again while unwinding");
}

void Fiber::rethrow_if_failed() {
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace ttsim::sim
