#include "obs/crash_handler.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__GLIBC__)
#include <execinfo.h>
#define FAIRCLIQUE_HAVE_BACKTRACE 1
#endif

#include "common/build_info.h"
#include "common/bitset_simd.h"
#include "common/logging.h"
#include "obs/event_journal.h"
#include "obs/progress.h"

namespace fairclique {
namespace obs {
namespace {

// ------------------------------------------------------------------
// Install-time state. The handler itself may only read plain/atomic
// fields from here — never the std::string.

constexpr int kSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE};
constexpr size_t kNumSignals = sizeof(kSignals) / sizeof(kSignals[0]);

std::atomic<bool> g_installed{false};
std::atomic<int> g_in_handler{0};
int g_dirfd = -1;
char g_filename[64] = {0};
std::string g_dir_for_reporting;  // CrashFilePath() only, never the handler
size_t g_journal_events = 64;
struct sigaction g_old_actions[kNumSignals];

/// Pre-reserved postmortem buffer: large enough for the fixed sections
/// plus kCrashRenderMax journal events and kCrashContextGraphs graphs.
constexpr size_t kBufBytes = 256 * 1024;
char g_buf[kBufBytes];

// ------------------------------------------------------------------
// Per-graph epoch/WAL table. Lock-free: a slot is claimed once with a CAS
// and then only its payload words change, so the handler's reads are
// bounded-stale but never torn (name bytes are written exactly once while
// the slot is claimed).

struct GraphSlot {
  std::atomic<uint32_t> state{0};  // 0 empty, 1 claiming, 2 published
  std::atomic<char> name[24] = {};
  std::atomic<uint64_t> version{0};
  std::atomic<uint64_t> fingerprint{0};
  std::atomic<uint64_t> wal_records{0};
};
GraphSlot g_graphs[kCrashContextGraphs];

bool SlotNameEquals(const GraphSlot& slot, const char* name) {
  size_t i = 0;
  for (; i < sizeof(slot.name) - 1 && name[i] != '\0'; ++i) {
    if (slot.name[i].load(std::memory_order_relaxed) != name[i]) return false;
  }
  if (i == sizeof(slot.name) - 1) return true;  // both truncated-equal
  return slot.name[i].load(std::memory_order_relaxed) == '\0';
}

GraphSlot* FindSlot(const char* name) {
  for (GraphSlot& slot : g_graphs) {
    if (slot.state.load(std::memory_order_acquire) == 2 &&
        SlotNameEquals(slot, name)) {
      return &slot;
    }
  }
  return nullptr;
}

GraphSlot* FindOrClaimSlot(const char* name) {
  GraphSlot* found = FindSlot(name);
  if (found != nullptr) return found;
  for (GraphSlot& slot : g_graphs) {
    uint32_t expected = 0;
    if (slot.state.compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel)) {
      size_t i = 0;
      for (; i < sizeof(slot.name) - 1 && name[i] != '\0'; ++i) {
        slot.name[i].store(name[i], std::memory_order_relaxed);
      }
      slot.name[i].store('\0', std::memory_order_relaxed);
      slot.state.store(2, std::memory_order_release);
      return &slot;
    }
  }
  return nullptr;  // table full — journal events still cover this graph
}

// ------------------------------------------------------------------
// Async-signal-safe formatting into g_buf.

size_t Append(size_t pos, const char* s) {
  while (*s != '\0' && pos < kBufBytes - 1) g_buf[pos++] = *s++;
  return pos;
}

size_t AppendDec(size_t pos, uint64_t v) {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && pos < kBufBytes - 1) g_buf[pos++] = tmp[--n];
  return pos;
}

size_t AppendDecSigned(size_t pos, int64_t v) {
  if (v < 0) {
    if (pos < kBufBytes - 1) g_buf[pos++] = '-';
    return AppendDec(pos, static_cast<uint64_t>(-v));
  }
  return AppendDec(pos, static_cast<uint64_t>(v));
}

size_t AppendHex(size_t pos, uint64_t v) {
  static const char kHex[] = "0123456789abcdef";
  pos = Append(pos, "0x");
  char tmp[16];
  size_t n = 0;
  do {
    tmp[n++] = kHex[v & 0xf];
    v >>= 4;
  } while (v != 0);
  while (n > 0 && pos < kBufBytes - 1) g_buf[pos++] = tmp[--n];
  return pos;
}

/// Quoted string with JSON-hostile bytes flattened to '?'.
size_t AppendQuoted(size_t pos, const char* s) {
  if (pos < kBufBytes - 1) g_buf[pos++] = '"';
  for (const char* p = s; *p != '\0' && pos < kBufBytes - 1; ++p) {
    char ch = *p;
    if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20) {
      ch = '?';
    }
    g_buf[pos++] = ch;
  }
  if (pos < kBufBytes - 1) g_buf[pos++] = '"';
  return pos;
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGABRT: return "SIGABRT";
    case SIGFPE: return "SIGFPE";
  }
  return "SIG?";
}

void WriteAllFd(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

void RestoreAndReraise(int sig) {
  signal(sig, SIG_DFL);
  raise(sig);
}

// fclint: signal-safe-begin
// Everything from here to the matching end marker runs inside a fatal
// signal handler: no allocation, no stdio, no blocking lock acquisition.
// tools/lint/fclint.py enforces the allowlist on every commit.
void CrashSignalHandler(int sig, siginfo_t* info, void* /*ucontext*/) {
  // A crash inside the handler (or a second faulting thread) must not
  // recurse or interleave: first one in wins, everyone else re-raises.
  if (g_in_handler.exchange(1, std::memory_order_acq_rel) != 0) {
    RestoreAndReraise(sig);
    return;
  }
  // Mute ordinary logging so the postmortem pointer below is the last
  // coherent stderr line even while other threads keep running.
  SetLogSuppressed(true);
  EventJournal::Default().Record(EventType::kCrashSignal,
                                 static_cast<uint64_t>(sig));

  size_t pos = 0;
  pos = Append(pos, "{\"signal\":");
  pos = AppendQuoted(pos, SignalName(sig));
  pos = Append(pos, ",\"signo\":");
  pos = AppendDec(pos, static_cast<uint64_t>(sig));
  pos = Append(pos, ",\"fault_addr\":\"");
  pos = AppendHex(pos, info != nullptr
                           ? reinterpret_cast<uint64_t>(info->si_addr)
                           : 0);
  pos = Append(pos, "\"");
  pos = Append(pos, ",\"pid\":");
  pos = AppendDec(pos, static_cast<uint64_t>(::getpid()));
  pos = Append(pos, ",\"uptime_seconds\":");
  pos = AppendDecSigned(pos, ProcessUptimeSeconds());
  pos = Append(pos, ",\"build\":{\"version\":");
  pos = AppendQuoted(pos, BuildVersion());
  pos = Append(pos, ",\"type\":");
  pos = AppendQuoted(pos, BuildType());
  pos = Append(pos, ",\"compiler\":");
  pos = AppendQuoted(pos, BuildCompiler());
  pos = Append(pos, "},\"simd_kernel\":");
  pos = AppendQuoted(pos, simd::ActiveName());

  pos = Append(pos, ",\"graphs\":[");
  bool first = true;
  for (const GraphSlot& slot : g_graphs) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    char name[sizeof(slot.name)];
    for (size_t i = 0; i < sizeof(name); ++i) {
      name[i] = slot.name[i].load(std::memory_order_relaxed);
    }
    name[sizeof(name) - 1] = '\0';
    if (!first) pos = Append(pos, ",");
    first = false;
    pos = Append(pos, "{\"name\":");
    pos = AppendQuoted(pos, name);
    pos = Append(pos, ",\"version\":");
    pos = AppendDec(pos, slot.version.load(std::memory_order_relaxed));
    pos = Append(pos, ",\"fingerprint\":\"");
    pos = AppendHex(pos, slot.fingerprint.load(std::memory_order_relaxed));
    pos = Append(pos, "\"");
    pos = Append(pos, ",\"wal_records\":");
    pos = AppendDec(pos, slot.wal_records.load(std::memory_order_relaxed));
    pos = Append(pos, "}");
  }
  pos = Append(pos, "]");

  CrashQueryRow rows[32];
  bool lock_acquired = false;
  size_t nrows = ProgressRegistry::Default().SnapshotForCrash(
      rows, sizeof(rows) / sizeof(rows[0]), &lock_acquired);
  pos = Append(pos, ",\"inflight_lock\":");
  pos = AppendQuoted(pos, lock_acquired ? "acquired" : "busy");
  pos = Append(pos, ",\"inflight_queries\":[");
  for (size_t i = 0; i < nrows; ++i) {
    if (i > 0) pos = Append(pos, ",");
    pos = Append(pos, "{\"trace_id\":");
    pos = AppendDec(pos, rows[i].trace_id);
    pos = Append(pos, ",\"graph\":");
    pos = AppendQuoted(pos, rows[i].graph);
    pos = Append(pos, ",\"nodes\":");
    pos = AppendDec(pos, rows[i].nodes);
    pos = Append(pos, ",\"incumbent\":");
    pos = AppendDecSigned(pos, rows[i].incumbent_size);
    pos = Append(pos, ",\"upper_bound\":");
    pos = AppendDecSigned(pos, rows[i].upper_bound);
    pos = Append(pos, ",\"components_done\":");
    pos = AppendDec(pos, rows[i].components_done);
    pos = Append(pos, ",\"components_total\":");
    pos = AppendDec(pos, rows[i].components_total);
    pos = Append(pos, ",\"elapsed_micros\":");
    pos = AppendDecSigned(pos, rows[i].elapsed_micros);
    pos = Append(pos, "}");
  }
  pos = Append(pos, "]");

  pos = Append(pos, ",\"backtrace\":[");
#if FAIRCLIQUE_HAVE_BACKTRACE
  void* frames[64];
  int nframes = backtrace(frames, 64);
  for (int i = 0; i < nframes; ++i) {
    if (i > 0) pos = Append(pos, ",");
    if (pos < kBufBytes - 1) g_buf[pos++] = '"';
    pos = AppendHex(pos, reinterpret_cast<uint64_t>(frames[i]));
    if (pos < kBufBytes - 1) g_buf[pos++] = '"';
  }
#endif
  pos = Append(pos, "]");

  pos = Append(pos, ",\"journal\":");
  if (pos < kBufBytes - 1) {
    pos += EventJournal::Default().RenderLastTo(g_buf + pos, kBufBytes - 1 - pos,
                                               g_journal_events);
  }
  pos = Append(pos, "}\n");

  int fd = ::openat(g_dirfd, g_filename, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    WriteAllFd(fd, g_buf, pos);
    ::fsync(fd);
    ::close(fd);
  }

  // One terse breadcrumb on stderr, written directly (stdio is off-limits
  // here and suppressed anyway).
  char note[160];
  size_t npos = 0;
  const char* head = "fairclique: fatal signal ";
  while (*head && npos < sizeof(note) - 1) note[npos++] = *head++;
  const char* sname = SignalName(sig);
  while (*sname && npos < sizeof(note) - 1) note[npos++] = *sname++;
  const char* mid = ", postmortem: ";
  while (*mid && npos < sizeof(note) - 1) note[npos++] = *mid++;
  const char* fname = g_filename;
  while (*fname && npos < sizeof(note) - 1) note[npos++] = *fname++;
  if (npos < sizeof(note)) note[npos++] = '\n';
  WriteAllFd(2, note, npos);

  RestoreAndReraise(sig);
}
// fclint: signal-safe-end

}  // namespace

bool InstallCrashHandler(const CrashHandlerOptions& options) {
  int dirfd = ::open(options.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd < 0) {
    FC_LOG(kError) << "crash handler: cannot open postmortem directory '"
                   << options.dir << "': " << std::strerror(errno);
    return false;
  }
  if (g_dirfd >= 0) ::close(g_dirfd);
  g_dirfd = dirfd;
  g_dir_for_reporting = options.dir;
  g_journal_events = options.journal_events;
  std::snprintf(g_filename, sizeof(g_filename), "crash-%d.json",
                static_cast<int>(::getpid()));

#if FAIRCLIQUE_HAVE_BACKTRACE
  // glibc's backtrace lazily loads libgcc on first use, which may
  // allocate; warm it now so the in-handler call is allocation-free.
  void* warm[4];
  backtrace(warm, 4);
#endif
  // Same for the lazily resolved SIMD dispatch name.
  (void)simd::ActiveName();

  if (!g_installed.exchange(true, std::memory_order_acq_rel)) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = &CrashSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_SIGINFO;
    for (size_t i = 0; i < kNumSignals; ++i) {
      if (sigaction(kSignals[i], &action, &g_old_actions[i]) != 0) {
        FC_LOG(kError) << "crash handler: sigaction(" << kSignals[i]
                       << ") failed: " << std::strerror(errno);
      }
    }
  }
  FC_LOG(kInfo) << "crash handler armed: " << CrashFilePath();
  return true;
}

bool CrashHandlerInstalled() {
  return g_installed.load(std::memory_order_acquire);
}

std::string CrashFilePath() {
  if (!CrashHandlerInstalled() && g_dirfd < 0) return "";
  if (g_dir_for_reporting.empty()) return g_filename;
  return g_dir_for_reporting + "/" + g_filename;
}

void NoteGraphEpoch(const std::string& name, uint64_t version,
                    uint64_t fingerprint) {
  GraphSlot* slot = FindOrClaimSlot(name.c_str());
  if (slot == nullptr) return;
  slot->version.store(version, std::memory_order_relaxed);
  slot->fingerprint.store(fingerprint, std::memory_order_relaxed);
}

void NoteGraphWalRecords(const std::string& name, uint64_t records) {
  GraphSlot* slot = FindOrClaimSlot(name.c_str());
  if (slot == nullptr) return;
  slot->wal_records.store(records, std::memory_order_relaxed);
}

void ForgetGraphEpoch(const std::string& name) {
  GraphSlot* slot = FindSlot(name.c_str());
  if (slot == nullptr) return;
  slot->version.store(0, std::memory_order_relaxed);
  slot->fingerprint.store(0, std::memory_order_relaxed);
  slot->wal_records.store(0, std::memory_order_relaxed);
  // Keep the name claimed: freeing and re-claiming slots concurrently
  // would allow torn names; a table of ever-seen graphs is bounded by
  // kCrashContextGraphs anyway.
}

}  // namespace obs
}  // namespace fairclique
