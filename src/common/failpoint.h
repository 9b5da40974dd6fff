// Failpoint injection: deterministic fault injection for the chaos test
// battery (tests/chaos_test.cc) and for poking a live server over the
// wire ("!fail", serve/protocol.h).
//
// A *failpoint* is a named site in production code where a test (or an
// operator) can inject a failure. Sites are spelled with the
// GBX_FAILPOINT* macros below; each site is identified by a
// dotted-path name ("model_io.save.write", "server.recv.eintr").
// What happens when an armed site is evaluated is an *action*:
//
//   off                disarmed (same as clearing the failpoint)
//   error              the site fails; how is site-specific (a typed
//                      Status at I/O sites, a simulated EINTR at
//                      syscall-wrapper sites — see the site's docs)
//   delay(MS)          sleep MS milliseconds, then continue normally
//   partial_write(N)   write sites persist only the first N bytes of
//                      the attempt, then fail — the torn-write fault
//   crash              _exit(kCrashExitCode) immediately: no atexit
//                      handlers, no buffer flush — a hard kill
//
// with an optional firing modifier:
//
//   :once              fire on the first evaluation, then disarm
//   :every(K)          fire on every Kth evaluation (K >= 1; beware
//                      every(1) on EINTR-simulation sites, whose retry
//                      loops re-evaluate until the site stops firing)
//
// Activation channels, all sharing the "name=action[:modifier]" spec
// grammar (comma- or semicolon-separated lists):
//
//   * env var  GBX_FAILPOINTS="model_io.save.write=error:once,..."
//     read once, at the first failpoint evaluation in the process;
//   * in-process  Failpoints::Instance().Set(name, spec) from tests;
//   * over the wire  "!fail set name=spec" / "!fail clear name|*" /
//     "!fail list" on a serving front-end (serve/server.h).
//
// Site inventory (grep GBX_FAILPOINT for ground truth):
//
//   model_io.save.{open,write,fsync,rename}   artifact I/O failures
//   model_io.save.crash_before_rename         torn-write crash window
//   registry.publish.validate                 hot-swap probe failure
//   server.{accept,poll,recv,send}.eintr      EINTR storms (every(K>=2))
//   server.worker.delay                       slow worker -> queue
//                                             pressure (overload and
//                                             deadline tests)
//   engine.predict                            typed failure out of the
//                                             inference engine
//   engine.predict.stall                      delay *inside* the predict
//                                             path while the worker is
//                                             marked busy — the watchdog
//                                             battery's stuck-worker
//                                             trigger (serve/server.h)
//
// Cost model: the registry below always compiles (so the spec grammar,
// "!fail", and tests of either work in every build), but the *sites*
// are compiled only when GBX_FAILPOINTS_ENABLED is defined (CMake
// option GBX_FAILPOINTS, default AUTO = on everywhere except plain
// Release). Compiled out, every macro is literally `(void)0` — zero
// overhead, the Release serving path carries no trace of the
// framework. Compiled in but disarmed, a site costs one relaxed atomic
// load.
#ifndef GBX_COMMON_FAILPOINT_H_
#define GBX_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace gbx {

/// Exit code of the `crash` action (distinguishable from asan aborts
/// and GBX_CHECK failures in death tests and CI logs).
inline constexpr int kFailpointCrashExitCode = 86;

/// The outcome of evaluating one failpoint site. `delay` and `crash`
/// actions are executed inside Eval() itself (the site just proceeds /
/// dies); `error` and `partial_write` are returned for the site to
/// interpret.
struct FailpointHit {
  enum class Action {
    kOff = 0,
    kError,
    kDelay,
    kPartialWrite,
    kCrash,
  };
  Action action = Action::kOff;
  /// delay(ms) / partial_write(n) argument.
  int arg = 0;

  bool fired() const { return action != Action::kOff; }
  bool error() const { return action == Action::kError; }
  bool partial_write() const { return action == Action::kPartialWrite; }
};

/// Process-wide failpoint registry. Thread-safe; Eval() is lock-free
/// when no failpoint is armed.
class Failpoints {
 public:
  /// True when GBX_FAILPOINT sites are compiled into this build. When
  /// false, Set()/Configure() still parse and record specs (the grammar
  /// stays testable) but no site will ever evaluate them.
  static constexpr bool kCompiledIn =
#ifdef GBX_FAILPOINTS_ENABLED
      true;
#else
      false;
#endif

  /// The singleton. First call applies the GBX_FAILPOINTS env var.
  static Failpoints& Instance();

  /// Arms `name` with `spec` = "action[:modifier]" (grammar above).
  /// "off" disarms. InvalidArgument on a malformed spec.
  Status Set(const std::string& name, const std::string& spec);

  /// Disarms `name`; NotFound if it was not armed.
  Status Clear(const std::string& name);

  /// Disarms everything (test teardown).
  void ClearAll();

  /// Applies a comma/semicolon-separated "name=spec" list. Stops at the
  /// first malformed entry (already-applied entries stay armed).
  Status Configure(const std::string& config);

  struct Info {
    std::string name;
    std::string spec;        // the spec text Set() was given
    std::int64_t evals = 0;  // evaluations since armed
    std::int64_t hits = 0;   // evaluations that fired
  };
  /// Currently-armed failpoints, name-ordered.
  std::vector<Info> List() const;

  /// Lifetime fired-count for `name` (survives Clear/re-Set; 0 if the
  /// name never fired). How chaos tests assert a fault was actually
  /// exercised.
  std::int64_t HitCount(const std::string& name) const;

  /// Evaluates the site `name`: applies firing modifiers, executes
  /// delay/crash actions inline, and returns the hit (kOff when
  /// disarmed or the modifier suppressed this evaluation).
  FailpointHit Eval(const char* name);

  /// True when any failpoint is armed — the macro fast path.
  bool armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

 private:
  Failpoints();

  struct Entry {
    FailpointHit hit;       // action + arg to deliver when firing
    std::string spec;       // original spec text (for List)
    bool once = false;      // disarm after the first fire
    int every_k = 1;        // fire on every Kth evaluation
    std::int64_t evals = 0; // evaluations since armed
    std::int64_t hits = 0;  // fires since armed
  };

  std::atomic<int> armed_count_{0};
  mutable std::mutex mu_;
  std::map<std::string, Entry> points_;
  std::map<std::string, std::int64_t> lifetime_hits_;
};

/// The Status an `error`-action hit conventionally maps to at Status
/// sites: Internal("failpoint 'NAME': injected error").
Status FailpointError(const char* name);

}  // namespace gbx

#ifdef GBX_FAILPOINTS_ENABLED
/// Evaluates the failpoint `name` as an expression yielding a
/// FailpointHit. delay/crash actions happen inside; error/partial_write
/// come back for the site to interpret.
#define GBX_FAILPOINT_EVAL(name)                  \
  (::gbx::Failpoints::Instance().armed()          \
       ? ::gbx::Failpoints::Instance().Eval(name) \
       : ::gbx::FailpointHit{})
/// Fire-and-forget site: honors delay/crash, ignores error actions.
#define GBX_FAILPOINT(name) ((void)GBX_FAILPOINT_EVAL(name))
/// Status-returning site: `return FailpointError(name)` on an
/// error-action hit (delay/crash still apply).
#define GBX_FAILPOINT_RETURN_ERROR(name)                          \
  do {                                                            \
    const ::gbx::FailpointHit _gbx_fp = GBX_FAILPOINT_EVAL(name); \
    if (_gbx_fp.error()) return ::gbx::FailpointError(name);      \
  } while (0)
#else
#define GBX_FAILPOINT_EVAL(name) (::gbx::FailpointHit{})
#define GBX_FAILPOINT(name) ((void)0)
#define GBX_FAILPOINT_RETURN_ERROR(name) ((void)0)
#endif

#endif  // GBX_COMMON_FAILPOINT_H_
