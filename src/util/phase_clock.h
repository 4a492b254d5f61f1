// Injected host-time profiling: a clock callback and a scope that accumulates
// wall time into one counter while it is alive.
#ifndef SRC_UTIL_PHASE_CLOCK_H_
#define SRC_UTIL_PHASE_CLOCK_H_

namespace litereconfig {

// Wall-clock callback for the optional per-phase execution profile, returning
// monotonic microseconds. src/ never reads host clocks itself (the simulated
// LatencyModel clock is the only time source that may feed results; detlint
// enforces it), so profiling is injection-only: the bench harness supplies a
// WallTimer-backed callback, everything else leaves it null and pays nothing.
using PhaseClockFn = double (*)();

// Accumulates wall time into one profile field while in scope; inert (never
// reads the clock) when no clock was injected.
class ScopedPhase {
 public:
  ScopedPhase(PhaseClockFn now, double* acc)
      : now_(now), acc_(acc), start_(now != nullptr ? now() : 0.0) {}
  ~ScopedPhase() {
    if (now_ != nullptr) {
      *acc_ += now_() - start_;
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseClockFn now_;
  double* acc_;
  double start_;
};

}  // namespace litereconfig

#endif  // SRC_UTIL_PHASE_CLOCK_H_
