#include "src/kernel/guest.h"

#include <cstdio>

#include "src/sim/check.h"

namespace remon {

GuestAddr Guest::Alloc(uint64_t size, uint64_t align) {
  Process* p = process();
  REMON_CHECK(align != 0 && (align & (align - 1)) == 0);
  GuestAddr addr = (p->alloc_cursor + align - 1) & ~(align - 1);
  p->alloc_cursor = addr + size;
  REMON_CHECK_MSG(p->alloc_cursor < p->brk_start, "guest static-data allocator exhausted");
  return addr;
}

GuestAddr Guest::CString(std::string_view s) {
  GuestAddr addr = Alloc(s.size() + 1, 1);
  Poke(addr, s.data(), s.size());
  uint8_t nul = 0;
  Poke(addr + s.size(), &nul, 1);
  return addr;
}

void Guest::Poke(GuestAddr addr, const void* data, uint64_t len) {
  if (!process()->mem().Write(addr, data, len).ok) {
    std::fprintf(stderr, "Guest::Poke fault in %s (replica %d) at 0x%llx len %llu\n",
                 process()->name().c_str(), process()->replica_index,
                 static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(len));
    REMON_CHECK_MSG(false, "Guest::Poke fault");
  }
}

void Guest::Peek(GuestAddr addr, void* out, uint64_t len) const {
  if (!process()->mem().Read(addr, out, len).ok) {
    std::fprintf(stderr, "Guest::Peek fault in %s (replica %d) at 0x%llx len %llu\n",
                 process()->name().c_str(), process()->replica_index,
                 static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(len));
    REMON_CHECK_MSG(false, "Guest::Peek fault");
  }
}

std::string Guest::PeekString(GuestAddr addr, uint64_t len) const {
  std::string s(len, '\0');
  Peek(addr, s.data(), len);
  return s;
}

uint64_t Guest::RegisterHandler(SignalHandlerFn fn) {
  Process* p = process();
  p->handler_fns.push_back(std::move(fn));
  // Cookies 0/1 mean SIG_DFL/SIG_IGN; handlers start at 2.
  return p->handler_fns.size() - 1 + 2;
}

uint64_t Guest::RegisterThreadFn(ProgramFn fn) {
  Process* p = process();
  uint64_t index = p->thread_fns_registered++;
  p->thread_fns.emplace(index, std::move(fn));
  return index;
}

SyscallAwait Guest::SleepNs(DurationNs d) {
  GuestAddr ts = Alloc(sizeof(GuestTimespec));
  GuestTimespec spec{d / kSecond, d % kSecond};
  Poke(ts, &spec, sizeof(spec));
  return Nanosleep(ts);
}

bool Guest::MemAccessAwait::await_ready() {
  AddressSpace& mem = t->process()->mem();
  switch (op) {
    case Op::kRead:
      ok = mem.Read(addr, out, len).ok;
      break;
    case Op::kWrite:
      ok = mem.Write(addr, in, len).ok;
      break;
    case Op::kExec: {
      const Vma* vma = mem.FindVma(addr);
      ok = vma != nullptr && (vma->prot & kProtExec) != 0;
      break;
    }
    case Op::kAlwaysFault:
      ok = false;
      break;
  }
  return ok;  // Success: no suspension. Fault: suspend and raise SIGSEGV.
}

void Guest::MemAccessAwait::await_suspend(std::coroutine_handle<> h) {
  Thread* thread = t;
  Kernel* kernel = thread->kernel();
  thread->sig_pending |= 1ULL << (kSIGSEGV - 1);
  // If the process has no SIGSEGV handler this kills it (and under ptrace, the
  // monitor sees the signal-delivery stop first). With a handler, execution resumes
  // here with ok == false.
  kernel->MaybeDeliverSignals(thread, [this, thread, kernel, h] {
    ok = false;
    kernel->ResumeHandleOnThread(thread, h, 0);
  });
}

}  // namespace remon
