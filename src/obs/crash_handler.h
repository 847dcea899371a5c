#ifndef FAIRCLIQUE_OBS_CRASH_HANDLER_H_
#define FAIRCLIQUE_OBS_CRASH_HANDLER_H_

/// Fatal-signal postmortem writer. InstallCrashHandler hooks SIGSEGV,
/// SIGBUS, SIGABRT, and SIGFPE; when one fires, the handler writes a
/// single JSON file `crash-<pid>.json` into the configured directory and
/// re-raises the signal so the process still dies with the original
/// disposition (exit code, core dump).
///
/// Everything the handler touches is async-signal-safe by construction:
/// the directory fd is opened at install time and the file is created with
/// openat(2); the output is rendered into a static pre-reserved buffer
/// with manual integer formatting (no malloc, no stdio); the journal and
/// the per-graph epoch table are lock-free; the in-flight query listing
/// uses try_lock and degrades to "unavailable" rather than deadlocking.
///
/// The postmortem contains: the signal (name, number, fault address), a
/// raw backtrace (glibc backtrace() addresses — symbolize offline with
/// addr2line), build provenance and uptime, the active SIMD kernel
/// variant, per-graph epoch/WAL state, the in-flight queries from
/// ProgressRegistry, and the last N journal events.

#include <cstddef>
#include <cstdint>
#include <string>

namespace fairclique {
namespace obs {

struct CrashHandlerOptions {
  /// Directory the postmortem is written into (the server passes
  /// --data-dir). Must exist.
  std::string dir;
  /// Newest journal events to include (capped at
  /// EventJournal::kCrashRenderMax).
  size_t journal_events = 64;
};

/// Installs the handlers. Returns false (with an error log) when the
/// directory cannot be opened. Safe to call again to re-point at a new
/// directory; handlers are only hooked once.
bool InstallCrashHandler(const CrashHandlerOptions& options);

bool CrashHandlerInstalled();

/// The path the next postmortem will be written to ("" before install).
std::string CrashFilePath();

// ------------------------------------------------------------------
// Crash context: a lock-free table of per-graph epoch/WAL state, updated
// by the registry and storage layers as graphs change, read only by the
// signal handler. Bounded; beyond kCrashContextGraphs graphs the newest
// writers are silently dropped (the journal still has their events).

constexpr size_t kCrashContextGraphs = 32;

/// Publishes (or updates) a graph's current epoch version and fingerprint.
void NoteGraphEpoch(const std::string& name, uint64_t version,
                    uint64_t fingerprint);

/// Updates a graph's count of WAL records appended since its last
/// snapshot publish.
void NoteGraphWalRecords(const std::string& name, uint64_t records);

/// Removes a graph from the table (eviction).
void ForgetGraphEpoch(const std::string& name);

}  // namespace obs
}  // namespace fairclique

#endif  // FAIRCLIQUE_OBS_CRASH_HANDLER_H_
