// perfbench: the benchmark program behind perfbench/run.py.
//
// One process runs one workload through the library's public entry points
// (Workbench::Get, OfflineTrainer::Train via the empty-cache Workbench path,
// OnlineRunner::Run, ServeRunner::Run) and prints one JSON object. Modes:
//
//   perfbench setup --workload W            set up once, report setup time
//   perfbench run   --workload W --seed S --seconds T --threads N
//                                           timed closed-loop jobs (one client,
//                                           one thread per job)
//   perfbench trace --workload W --seed S --threads N
//                                           the traced pass: per-layer metrics
//
// The cache directory comes from $LITERECONFIG_CACHE_DIR, which run.py points
// at a fresh per-workload directory. Nothing here is traced inside src/: spans
// wrap calls into each module's public functions from this file only.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/det/detector.h"
#include "src/features/feature.h"
#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/nn/matrix.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/pipeline/serialize.h"
#include "src/pipeline/trace.h"
#include "src/pipeline/trainer.h"
#include "src/pipeline/workbench.h"
#include "src/platform/device.h"
#include "src/sched/scheduler_session.h"
#include "src/serve/admission.h"
#include "src/serve/allocator.h"
#include "src/serve/serve_runner.h"
#include "src/serve/stream_session.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "src/video/raster.h"

namespace litereconfig {
namespace {

using Clock = std::chrono::steady_clock;

// Distinct job inputs per run: job i uses input i % kPeriod, so every later
// repeat of an input must reproduce the first one's digest byte for byte.
constexpr int kPeriod = 32;
// Leading jobs left out of job_ms_* and frames_per_s (still checked): one
// full single-tenant configuration cycle.
constexpr int kWarmupJobs = 8;
// job_ms_p90 needs at least ten samples beyond it (--min-jobs lowers it for
// smoke runs only), and so does each chunk the timed jobs are split into.
constexpr int kMinTimedJobs = 104;
constexpr size_t kChunkJobs = 104;
// A run stops taking new jobs after this many seconds even below
// kMinTimedJobs, so the process always exits well inside its time limit.
constexpr double kHardStopSeconds = 120.0;
// Every run, whatever its seed, also runs inputs [0, kCycle) of this seed;
// run.py checks their digests against perfbench/pins.json.
constexpr uint64_t kPinnedSeed = 1;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

// Linear interpolation between closest ranks (statistics.quantiles-compatible
// for the median).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workloads and their job inputs.

enum class Workload { kColdStart, kSingleTenant, kServe, kServeFaults };

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "cold_start") return Workload::kColdStart;
  if (name == "single_tenant") return Workload::kSingleTenant;
  if (name == "serve") return Workload::kServe;
  if (name == "serve_faults") return Workload::kServeFaults;
  return std::nullopt;
}

bool IsServe(Workload w) { return w == Workload::kServe || w == Workload::kServeFaults; }


// Single-tenant jobs cycle SLO x contention so every feature path is hit: HoC
// at 20 ms, ResNet50/CPoP at 33.3 ms, light-only at 50 ms, CPoP at 100 ms.
struct SingleTenantPoint {
  double slo_ms;
  double contention;
};
constexpr SingleTenantPoint kSingleTenantCycle[] = {
    {20.0, 0.0}, {20.0, 0.5}, {33.3, 0.0}, {33.3, 0.5},
    {50.0, 0.0}, {50.0, 0.5}, {100.0, 0.0}, {100.0, 0.5}};
constexpr int kCycle = static_cast<int>(std::size(kSingleTenantCycle));
static_assert(kPeriod % kCycle == 0 && kWarmupJobs % kCycle == 0 && kChunkJobs % kCycle == 0);

struct Job {
  int index = 0;  // input index in [0, kPeriod)
  // Single-tenant (cold_start and single_tenant) inputs.
  DatasetSpec batch;
  EvalConfig eval;
  // Serving inputs.
  ArrivalSpec arrivals;
  ServeConfig serve;
};

Job MakeJob(Workload w, uint64_t seed, int index) {
  Job job;
  job.index = index;
  const uint64_t input_seed = HashKeys({seed, static_cast<uint64_t>(index), 0x9e7bull});
  if (!IsServe(w)) {
    // The size of a default litereconfig_run validation set.
    job.batch = DatasetSpec{input_seed, /*num_videos=*/30, /*frames_per_video=*/150};
    const SingleTenantPoint& point = kSingleTenantCycle[index % kCycle];
    job.eval.device = DeviceType::kTx2;
    job.eval.slo_ms = point.slo_ms;
    job.eval.gpu_contention = point.contention;
    return job;
  }
  job.arrivals.seed = input_seed;
  job.arrivals.num_streams = 48;
  job.arrivals.frames_per_video = 300;
  job.arrivals.mean_interarrival_rounds = 0.5;
  job.serve.allocator.mode = AllocatorMode::kCostBenefit;
  if (w == Workload::kServeFaults) {
    job.serve.faults.spec = *FaultSpec::FromName("severe");
    job.serve.faults.fault_seed = HashKeys({input_seed, 0xfa17ull});
    job.serve.faults.degrade = true;
  }
  return job;
}

// Moves the calling thread round-robin over the CPUs the process may use, one
// CPU per Next(), and restores the original mask on destruction. The timed
// jobs run single-threaded; without rotation a run would stay on whichever
// vCPU the scheduler picked, and vCPU speeds on a shared host differ (serve
// jobs pinned to each of 4 vCPUs in turn read job_ms_p50 of 50 to 71 ms).
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// A fixed piece of the benchmark's own work, run after every timed job on the
// same CPU, so that job times can be scaled to one reference host speed.
//
// On a shared host the speed of the same vCPU drifts by 20 % or more over
// minutes, because other tenants compete for its caches. Pure ALU or L1 work
// barely notices this. Random read-modify-writes over a table of a few
// hundred KiB, like this kernel's, slow down together with the library's
// jobs: over eight 10-second serve runs, raw job CPU time spread 0.14 (Q3 - Q1
// over the median) and job CPU time divided by this kernel's time 0.02. The
// kernel lives in this file, so no change to the library moves it.
class HostCalibration {
 public:
  // The kernel's time on the reference host. Scaled job times read as if the
  // kernel had taken exactly this long.
  static constexpr double kReferenceMs = 2.0;

  // Runs the kernel once; returns kReferenceMs over its process CPU time.
  double Scale() {
    double cpu0 = CpuSeconds();
    uint64_t x = 0x5eedull;
    float sum = 0.0f;
    for (int i = 0; i < 1500000; ++i) {
      x += 0x9e3779b97f4a7c15ull;
      uint64_t z = (x ^ (x >> 31)) * 0x94d049bb133111ebull;
      float& cell = table_[z >> 48];
      cell = cell * 0.999f + 0.001f;
      sum += cell;
    }
    sink_ = sum;
    last_ms_ = (CpuSeconds() - cpu0) * 1e3;
    return kReferenceMs / last_ms_;
  }
  double last_ms() const { return last_ms_; }

 private:
  std::vector<float> table_ = std::vector<float>(1 << 16, 1.0f);  // 256 KiB
  volatile float sink_ = 0.0f;
  double last_ms_ = 0.0;
};

struct Setup {
  const Workbench* wb = nullptr;
  const TrainedModels* models = nullptr;
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;
};

// Process start (main entry) until the models are ready. cold_start runs it
// against an empty cache, so Workbench::Get trains and saves the bundle.
Setup DoSetup(Workload w, Clock::time_point process_start) {
  Setup setup;
  double cpu0 = CpuSeconds();
  setup.wb = &Workbench::Get(DeviceType::kTx2);
  setup.models = w == Workload::kServeFaults ? &setup.wb->cpu_family_models()
                                             : &setup.wb->models();
  setup.setup_s = Since(process_start);
  setup.setup_cpu_s = CpuSeconds() - cpu0;
  return setup;
}

struct JobOutcome {
  std::string json;  // EvalResultJson / ServeEvalJson
  size_t frames = 0;
  bool oom = false;
  double host_s = 0.0;
  double cpu_s = 0.0;  // process CPU time over the same interval
  PhaseProfile phases;     // single-tenant runs only
  ServeResult serve;       // serving runs only
};

// One job: the fresh input batch or arrival trace plus the run over it.
JobOutcome RunJob(const TrainedModels& models, Workload w, const Job& job,
                  int threads, TraceWriter* trace = nullptr,
                  std::function<void(const ServeEvent&)> observer = nullptr) {
  JobOutcome out;
  double cpu0 = CpuSeconds();
  Clock::time_point t0 = Clock::now();
  if (!IsServe(w)) {
    Dataset batch = BuildDataset(job.batch, DatasetSplit::kVal);
    LiteReconfigProtocol protocol(&models, LiteReconfigProtocol::FullConfig(),
                                  "litereconfig");
    protocol.set_trace_writer(trace);
    EvalConfig config = job.eval;
    config.threads = threads;
    EvalResult result = OnlineRunner::Run(protocol, batch, config);
    out.host_s = Since(t0);
    out.cpu_s = CpuSeconds() - cpu0;
    if (trace != nullptr) {
      std::vector<uint64_t> order;
      for (const SyntheticVideo& video : batch.videos) {
        order.push_back(video.spec().seed);
      }
      trace->Flush(order);
    }
    out.json = EvalResultJson(result);
    out.frames = result.frames;
    out.oom = result.oom;
    out.phases = result.phases;
    return out;
  }
  ServeConfig config = job.serve;
  config.threads = threads;
  config.observer = std::move(observer);
  ServeEval eval = ServeRunner::Run(models, job.arrivals, config, trace);
  out.host_s = Since(t0);
  out.cpu_s = CpuSeconds() - cpu0;
  if (trace != nullptr) {
    std::vector<uint64_t> order;
    for (const StreamOutcome& stream : eval.result.streams) {
      order.push_back(stream.stream_id);
    }
    trace->Flush(order);
  }
  out.json = ServeEvalJson(eval);
  out.frames = eval.result.total_frames;
  for (const StreamOutcome& stream : eval.result.streams) {
    for (const FailureReport& failure : stream.robustness.failures) {
      out.oom = out.oom || failure.kind == FailureKind::kOom;
    }
  }
  out.serve = std::move(eval.result);
  return out;
}

// Per-input correctness book: the first digest seen for each input index,
// how often the input ran, and how many of those runs failed.
struct DigestBook {
  std::vector<std::string> digest = std::vector<std::string>(kPeriod);
  std::vector<int> attempts = std::vector<int>(kPeriod, 0);
  std::vector<int> failures = std::vector<int>(kPeriod, 0);

  // A job fails on frames == 0, an oom result, or a digest that differs from
  // the first run of the same input.
  void Record(int index, const JobOutcome& out) {
    std::string d = Hex(Fnv1a(out.json));
    size_t i = static_cast<size_t>(index);
    if (digest[i].empty()) {
      digest[i] = d;
    }
    bool ok = out.frames > 0 && !out.oom && d == digest[i];
    ++attempts[i];
    failures[i] += ok ? 0 : 1;
  }
  int attempted() const {
    int n = 0;
    for (int a : attempts) n += a;
    return n;
  }
  int failed() const {
    int n = 0;
    for (int f : failures) n += f;
    return n;
  }
};

// Minimal one-level JSON object writer.
class JsonOut {
 public:
  void Num(std::string_view key, double value) {
    Key(key);
    os_ << FmtDouble(value, 9);
  }
  void Int(std::string_view key, long value) {
    Key(key);
    os_ << value;
  }
  void Strings(std::string_view key, const std::vector<std::string>& values) {
    Key(key);
    os_ << "[";
    for (size_t i = 0; i < values.size(); ++i) {
      os_ << (i > 0 ? "," : "") << "\"" << values[i] << "\"";
    }
    os_ << "]";
  }
  void Ints(std::string_view key, const std::vector<int>& values) {
    Key(key);
    os_ << "[";
    for (size_t i = 0; i < values.size(); ++i) {
      os_ << (i > 0 ? "," : "") << values[i];
    }
    os_ << "]";
  }
  void Book(const DigestBook& book) {
    Int("attempted", book.attempted());
    Int("failed", book.failed());
    Strings("digests", book.digest);
    Ints("index_attempts", book.attempts);
    Ints("index_failures", book.failures);
  }
  // The pinned-seed jobs: their digests, and how many had frames == 0 or oom.
  void Pinned(const DigestBook& pinned) {
    Int("pinned_seed", static_cast<long>(kPinnedSeed));
    Strings("pinned_digests",
            std::vector<std::string>(pinned.digest.begin(), pinned.digest.begin() + kCycle));
    Int("pinned_failed", pinned.failed());
  }
  std::string str() const { return os_.str() + "}"; }

 private:
  void Key(std::string_view key) {
    os_ << (first_ ? "{" : ",") << "\"" << key << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// The timed run.

// Re-runs one input with all `threads` workers; it must match the
// single-threaded timed runs byte for byte.
void RepeatMultiThreaded(const Setup& setup, Workload w, uint64_t seed, int threads,
                         DigestBook& book) {
  int index = static_cast<int>(seed % kPeriod);
  book.Record(index, RunJob(*setup.models, w, MakeJob(w, seed, index), threads));
}

// One configuration cycle of kPinnedSeed inputs with all `threads` workers.
DigestBook RunPinned(const Setup& setup, Workload w, int threads) {
  DigestBook pinned;
  for (int index = 0; index < kCycle; ++index) {
    pinned.Record(index, RunJob(*setup.models, w, MakeJob(w, kPinnedSeed, index), threads));
  }
  return pinned;
}

std::string TimedRun(Workload w, uint64_t seed, double seconds, int min_jobs, int threads,
                     Clock::time_point process_start) {
  Setup setup = DoSetup(w, process_start);
  DigestBook book;
  // Per timed job: its CPU time scaled to the reference host speed, its wall
  // time and the calibration kernel's time next to it.
  std::vector<double> job_ms, wall_ms, calibration_ms;
  double frames = 0.0;
  {
    CpuRotation rotation;
    HostCalibration calibration;
    Clock::time_point loop_start = Clock::now();
    Clock::time_point timed_start = loop_start;
    for (int i = 0;; ++i) {
      if (i == kWarmupJobs) {
        timed_start = Clock::now();
      }
      // Stop on a cycle boundary so every run weighs the configurations alike.
      bool enough = static_cast<int>(job_ms.size()) >= min_jobs && Since(timed_start) >= seconds;
      if (i % kCycle == 0) {
        if (enough || Since(loop_start) >= kHardStopSeconds) {
          break;
        }
        rotation.Next();
      }
      Job job = MakeJob(w, seed, i % kPeriod);
      JobOutcome out = RunJob(*setup.models, w, job, /*threads=*/1);
      double scale = calibration.Scale();
      book.Record(job.index, out);
      if (i >= kWarmupJobs) {
        job_ms.push_back(out.cpu_s * 1e3 * scale);
        wall_ms.push_back(out.host_s * 1e3);
        calibration_ms.push_back(calibration.last_ms());
        frames += static_cast<double>(out.frames);
      }
    }
  }
  RepeatMultiThreaded(setup, w, seed, threads, book);
  DigestBook pinned = RunPinned(setup, w, threads);

  double job_s = 0.0;
  for (double ms : job_ms) {
    job_s += ms * 1e-3;
  }
  // job_ms_p90 is the median of the p90s of chunks of kChunkJobs consecutive
  // jobs (the remainder joins the last chunk): a burst of host noise then
  // moves one chunk's tail, not the run's figure.
  std::vector<double> chunk_p90;
  size_t chunks = std::max<size_t>(1, job_ms.size() / kChunkJobs);
  for (size_t c = 0; c < chunks; ++c) {
    auto first = job_ms.begin() + static_cast<std::ptrdiff_t>(c * kChunkJobs);
    auto last = c + 1 == chunks ? job_ms.end() : first + kChunkJobs;
    chunk_p90.push_back(Percentile(std::vector<double>(first, last), 0.9));
  }

  JsonOut json;
  json.Num("setup_s", setup.setup_s);
  json.Num("job_ms_p50", Percentile(job_ms, 0.5));
  json.Num("job_ms_p90", Percentile(chunk_p90, 0.5));
  json.Num("frames_per_s", Ratio(frames, job_s));
  json.Num("peak_rss_mb", PeakRssMb());
  // Unscaled figures, for reading the host's state next to the result.
  json.Num("wall_ms_p50", Percentile(wall_ms, 0.5));
  json.Num("calibration_ms_p50", Percentile(calibration_ms, 0.5));
  json.Int("timed_jobs", static_cast<long>(job_ms.size()));
  json.Book(book);
  json.Pinned(pinned);
  return json.str();
}

// ---------------------------------------------------------------------------
// The traced pass.

// Spans held in memory and written at exit. A span's layer is its name up to
// the first '.'; its self time is its duration minus its children's.
//
// Spans named "probe.<call>" time a call whose work the replay already does
// inside another span: LiteReconfigScheduler::Decide computes the light
// features, predictions, feature selection and heavy extraction itself, and
// BuildSnippetData labels and featurizes every snippet. Probes give those
// calls their per-call means. Their time is left out of the shares, so each
// unit of work is counted once.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int Begin(std::string name) {
    spans_.push_back(Span{std::move(name), Now(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double End() {
    Span& span = spans_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    span.end_us = Now();
    return span.end_us - span.start_us;
  }
  // Times fn() as a span; returns its duration in microseconds.
  template <typename Fn>
  double Time(std::string name, Fn&& fn) {
    Begin(std::move(name));
    fn();
    return End();
  }

  // Self-time per layer under `root`, with the root's own self time reported
  // as "untraced" and the probes' time as "probe" — the layers other than
  // "probe" partition the root's duration minus the probes'.
  std::map<std::string, double> SelfTimeByLayer(int root) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] += span.end_us - span.start_us;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      double us = span.end_us - span.start_us - child_us[i];
      std::string layer = static_cast<int>(i) == root
                              ? "untraced"
                              : span.name.substr(0, span.name.find('.'));
      self[layer] += us;
    }
    return self;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (const Span& span : spans_) {
      std::fprintf(f, "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d}\n",
                   span.name.c_str(), span.start_us, span.end_us, span.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Call-count and total-time accumulators for the "<name>_us" means.
struct Meter {
  double total_us = 0.0;
  long calls = 0;
  void Add(double us, long n = 1) {
    total_us += us;
    calls += n;
  }
  double Mean() const { return Ratio(total_us, static_cast<double>(calls)); }
};

struct LayerMetrics {
  Meter generate_video;  // per video, us
  Meter render, light, select, decide, detect, ap_add, allocate, admission;
  std::array<Meter, kNumFeatureKinds> extract, predict;
  std::array<long, kNumFeatureKinds> heavy_uses = {};
  long decisions = 0;
  double track_us = 0.0;
  long track_frames = 0;
  double coast_us = 0.0;
  long coast_frames = 0;
  long unmatched = 0;  // serving decisions whose feature set was not recovered
};

FeatureKind FeatureByName(const std::string& name) {
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    if (FeatureName(static_cast<FeatureKind>(k)) == name) {
      return static_cast<FeatureKind>(k);
    }
  }
  return FeatureKind::kCount;
}

// One recorded decision, replayed through the module calls it makes.
struct ReplayStep {
  int frame = 0;
  size_t branch = 0;
  int gof_length = 0;
  double slo_ms = 33.3;
  double gpu_cal = 1.0;
  double budget_ms = 0.0;
  bool gpu_available = true;
  // kDecide: scheduler pass, anchor detection, tracking. kCoast (fault
  // coasting) and kTail (stream tail) are tracker-only continuations.
  enum class Kind { kDecide, kCoast, kTail } kind = Kind::kDecide;
  // Heavy features the recorded decision extracted; nullopt = not recorded
  // (serving traces), in which case the replayed decision's own choice counts.
  std::optional<std::vector<FeatureKind>> heavy;
};

// Per-stream replay state: the scheduler session (single-tenant runs keep one
// per video; the serving path decides without one), the previous GoF's anchor
// detections and outputs, and the stream's AP accumulation.
struct ReplayStream {
  const SyntheticVideo* video = nullptr;
  std::optional<SchedulerSession> session;
  DetectionList anchor;
  DetectionList last_frame;
  std::optional<size_t> current;
  ApEvaluator ap;
};

// The runtimes' preheat probe: one cheap detector pass on frame 0 seeds the
// light features the first decision reads.
void OpenReplayStream(const SyntheticVideo& video, bool with_session, Tracer& tracer,
                      ReplayStream& stream) {
  stream.video = &video;
  if (with_session) {
    stream.session.emplace();
  }
  tracer.Time("det.preheat", [&] {
    stream.anchor = DetectorSim::Detect(video, 0, DetectorConfig{320, 10}, DetectorQuality{},
                                        HashKeys({1, 0x94e47ull}));
  });
}

TrackerConfig CoastTracker(const Branch& branch) {
  return branch.has_tracker ? branch.tracker : TrackerConfig{TrackerType::kMedianFlow, 4};
}

void ReplayStepCalls(const TrainedModels& models, const LiteReconfigScheduler& scheduler,
                     const ReplayStep& step, ReplayStream& stream, Tracer& tracer,
                     LayerMetrics& m) {
  const SyntheticVideo& video = *stream.video;
  const BranchSpace& space = *models.space;
  const Branch& branch = space.at(step.branch);
  if (step.kind != ReplayStep::Kind::kDecide) {
    // Tracker-only GoF: no detector, no scheduler pass.
    bool coast = step.kind == ReplayStep::Kind::kCoast;
    std::vector<DetectionList> frames;
    double us = tracer.Time(coast ? "mbek.coast" : "mbek.track", [&] {
      frames = ExecutionKernel::TrackOnly(
          video, step.frame, step.gof_length,
          CoastTracker(space.at(stream.current.value_or(step.branch))),
          stream.last_frame, /*run_salt=*/1);
    });
    (coast ? m.coast_us : m.track_us) += us;
    (coast ? m.coast_frames : m.track_frames) += static_cast<long>(frames.size());
    if (!frames.empty()) {
      stream.last_frame = frames.back();
    }
    return;
  }
  ++m.decisions;
  DecisionContext ctx;
  ctx.video = &video;
  ctx.frame = step.frame;
  ctx.anchor_detections = &stream.anchor;
  ctx.current_branch = stream.current;
  ctx.slo_ms = step.slo_ms;
  ctx.frames_remaining = video.frame_count() - step.frame;
  ctx.gpu_cal = step.gpu_cal;
  ctx.budget_ms = step.budget_ms;
  ctx.gpu_available = step.gpu_available;

  SchedulerDecision decision;
  SchedulerSession* session = stream.session ? &*stream.session : nullptr;
  m.decide.Add(tracer.Time("sched.decide", [&] { decision = scheduler.Decide(ctx, session); }));

  // Probes of the calls Decide just made internally.
  std::vector<double> light;
  m.light.Add(tracer.Time("probe.features.light", [&] {
    light = ComputeLightFeatures(video.spec().width, video.spec().height, stream.anchor);
  }));
  const AccuracyPredictor& light_model = models.accuracy.at(FeatureKind::kLight);
  std::vector<double> light_pred;
  m.predict[0].Add(tracer.Time("probe.nn.predict.Light",
                               [&] { light_pred = light_model.Predict(light, {}); }));
  m.select.Add(tracer.Time("probe.sched.select_features",
                           [&] { scheduler.SelectFeatures(light, light_pred, ctx); }));
  const std::vector<FeatureKind>& heavy =
      step.heavy.has_value() ? *step.heavy : decision.heavy_features;
  std::optional<Image> raster;
  for (FeatureKind kind : heavy) {
    size_t k = static_cast<size_t>(kind);
    ++m.heavy_uses[k];
    if (FeatureNeedsRaster(kind) && !raster.has_value()) {
      m.render.Add(tracer.Time("probe.video.render",
                               [&] { raster = RenderFrame(video, step.frame); }));
    }
    std::vector<double> content;
    std::string kname(FeatureName(kind));
    m.extract[k].Add(tracer.Time("probe.features.extract." + kname, [&] {
      content = ExtractFeature(kind, video, step.frame, stream.anchor,
                               raster.has_value() ? &*raster : nullptr);
    }));
    m.predict[k].Add(tracer.Time("probe.nn.predict." + kname,
                                 [&] { models.accuracy.at(kind).Predict(light, content); }));
  }

  DetectionList anchor;
  m.detect.Add(tracer.Time("mbek.detect_anchor", [&] {
    anchor = ExecutionKernel::DetectAnchor(video, step.frame, branch, /*run_salt=*/1);
  }));
  std::vector<DetectionList> tracked;
  double track_us = tracer.Time("mbek.track", [&] {
    tracked = ExecutionKernel::TrackRemainder(video, step.frame, branch, anchor,
                                              /*run_salt=*/1);
  });
  m.track_us += track_us;
  m.track_frames += static_cast<long>(tracked.size());
  // One span per GoF, not per frame: a span costs about as much as a frame's
  // AP update, and per-frame spans would bury the replay in bookkeeping.
  std::vector<GroundTruthList> truths(1 + tracked.size());
  tracer.Time("video.ground_truth", [&] {
    for (size_t i = 0; i < truths.size(); ++i) {
      truths[i] = video.frame(step.frame + static_cast<int>(i)).VisibleGroundTruth();
    }
  });
  m.ap_add.Add(tracer.Time("vision.ap_add_frame",
                           [&] {
                             stream.ap.AddFrame(truths[0], anchor);
                             for (size_t i = 0; i < tracked.size(); ++i) {
                               stream.ap.AddFrame(truths[i + 1], tracked[i]);
                             }
                           }),
               static_cast<long>(truths.size()));
  stream.last_frame = tracked.empty() ? anchor : tracked.back();
  stream.anchor = std::move(anchor);
  stream.current = step.branch;
}

std::map<std::string, size_t> BranchIndexById(const BranchSpace& space) {
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < space.size(); ++i) {
    index[space.at(i).Id()] = i;
  }
  return index;
}

// Replays the decisions of one traced single-tenant job; false (with a
// message) when the trace does not parse.
bool ReplaySingleTenant(const TrainedModels& models, const Job& job,
                        const std::string& trace_text, Tracer& tracer, LayerMetrics& m) {
  std::istringstream is(trace_text);
  std::string error;
  std::optional<std::vector<DecisionRecord>> records = TraceReader::ReadAllStrict(is, &error);
  if (!records) {
    std::fprintf(stderr, "perfbench: malformed decision trace: %s\n", error.c_str());
    return false;
  }
  Dataset batch;
  m.generate_video.Add(
      tracer.Time("video.generate", [&] { batch = BuildDataset(job.batch, DatasetSplit::kVal); }),
      job.batch.num_videos);
  std::map<uint64_t, ReplayStream> streams;
  for (const SyntheticVideo& video : batch.videos) {
    OpenReplayStream(video, /*with_session=*/true, tracer, streams[video.spec().seed]);
  }
  LiteReconfigScheduler scheduler(&models, LiteReconfigProtocol::FullConfig());
  std::map<std::string, size_t> by_id = BranchIndexById(*models.space);
  for (const DecisionRecord& record : *records) {
    auto stream = streams.find(record.video_seed);
    auto branch = by_id.find(record.branch_id);
    if (record.event != "decision" || stream == streams.end() || branch == by_id.end()) {
      continue;
    }
    ReplayStep step;
    step.frame = record.frame;
    step.branch = branch->second;
    step.gof_length = record.gof_length;
    step.slo_ms = job.eval.slo_ms;
    step.gpu_cal = record.gpu_cal;
    std::vector<FeatureKind> heavy;
    for (const std::string& name : record.features) {
      FeatureKind kind = FeatureByName(name);
      if (kind != FeatureKind::kCount) {
        heavy.push_back(kind);
      }
    }
    step.heavy = std::move(heavy);
    ReplayStepCalls(models, scheduler, step, stream->second, tracer, m);
  }
  // Freeing the streams and videos is part of the job too.
  tracer.Time("sched.release", [&] { streams.clear(); });
  tracer.Time("video.release", [&] { batch = Dataset{}; });
  return true;
}

// The serving trace records no feature names, but a GoF report's scheduler
// cost is the light cost plus each extracted heavy feature's cost (at most two,
// the scheduler's max_heavy_features), which identifies the set. nullopt when
// no set matches (e.g. a thermal fault scaled the CPU calibration).
std::optional<std::vector<FeatureKind>> HeavyFromCost(const TrainedModels& models,
                                                      double scheduler_ms, double gpu_cal) {
  auto cost = [&](FeatureKind kind) { return models.FeatureCostMs(kind, gpu_cal, 1.0); };
  auto near = [](double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, b); };
  double s0 = cost(FeatureKind::kLight);
  if (near(s0, scheduler_ms)) {
    return std::vector<FeatureKind>{};
  }
  for (FeatureKind a : kHeavyFeatures) {
    if (near(s0 + cost(a), scheduler_ms)) {
      return std::vector<FeatureKind>{a};
    }
    for (FeatureKind b : kHeavyFeatures) {
      if (a != b && near(s0 + (cost(a) + cost(b)), scheduler_ms)) {
        return std::vector<FeatureKind>{a, b};
      }
    }
  }
  return std::nullopt;
}

// What the serve observer saw during one traced serving job.
struct ServeObservation {
  std::vector<ServeEvent> events;
  std::vector<double> round_start_us;  // host time of each round's first event
};

void ReplayServe(const TrainedModels& models, const Job& job, const ServeObservation& obs,
                 Tracer& tracer, LayerMetrics& m) {
  std::vector<StreamRequest> requests;
  tracer.Time("serve.arrivals", [&] { requests = GenerateArrivals(job.arrivals); });
  std::map<uint64_t, const StreamRequest*> request_by_id;
  for (const StreamRequest& request : requests) {
    request_by_id[request.stream_id] = &request;
  }
  std::map<uint64_t, SyntheticVideo> videos;
  std::map<uint64_t, std::unique_ptr<StreamSession>> sessions;
  std::map<uint64_t, ReplayStream> streams;
  LiteReconfigScheduler scheduler(&models, job.serve.scheduler);
  AdmissionController admission(job.serve.admission);
  const ServiceFaultConfig* faults =
      job.serve.faults.spec.Any() ? &job.serve.faults : nullptr;
  auto open_stream = [&](uint64_t id) -> ReplayStream& {
    auto it = streams.find(id);
    if (it != streams.end()) {
      return it->second;
    }
    const StreamRequest& request = *request_by_id.at(id);
    m.generate_video.Add(tracer.Time(
        "video.generate", [&] { videos.emplace(id, SyntheticVideo::Generate(request.video)); }));
    tracer.Time("serve.session_init", [&] {
      sessions.emplace(id, std::make_unique<StreamSession>(
                               &models, job.serve.scheduler, request,
                               &*models.switching, job.serve.service_salt, faults));
    });
    ReplayStream& stream = streams[id];
    OpenReplayStream(videos.at(id), /*with_session=*/false, tracer, stream);
    return stream;
  };

  size_t active = 0;
  size_t queued = 0;
  for (size_t i = 0; i < obs.events.size();) {
    // One planning round: admission events, then the round's GoFs.
    int round = obs.events[i].round;
    std::vector<StreamDemand> demands;
    for (; i < obs.events.size() && obs.events[i].round == round; ++i) {
      const ServeEvent& event = obs.events[i];
      switch (event.kind) {
        case ServeEvent::Kind::kAdmit:
        case ServeEvent::Kind::kQueue:
        case ServeEvent::Kind::kReject: {
          AdmissionRequest request;
          request.active_streams = active;
          request.queued_streams = queued;
          m.admission.Add(
              tracer.Time("serve.admission", [&] { admission.Evaluate(request); }));
          if (event.kind == ServeEvent::Kind::kAdmit) {
            ++active;
            queued = queued > 0 ? queued - 1 : 0;
          } else if (event.kind == ServeEvent::Kind::kQueue) {
            ++queued;
          }
          break;
        }
        case ServeEvent::Kind::kDepart:
        case ServeEvent::Kind::kEvict:
          active = active > 0 ? active - 1 : 0;
          break;
        case ServeEvent::Kind::kGof: {
          if (event.gof.done) {
            break;
          }
          ReplayStream& stream = open_stream(event.stream_id);
          const StreamRequest& request = *request_by_id.at(event.stream_id);
          bool gpu_available = !event.gof.cpu_fallback;
          StreamDemand demand;
          demand.slo_ms = request.slo_ms;
          demand.slo_class = request.slo_class;
          tracer.Time("serve.menu", [&] {
            demand.menu = sessions.at(event.stream_id)->Menu(event.level, 1.0, gpu_available);
          });
          demands.push_back(std::move(demand));
          ReplayStep step;
          step.frame = event.gof.frame;
          step.branch = event.gof.branch;
          step.gof_length = event.gof.gof_length;
          step.slo_ms = request.slo_ms;
          step.gpu_cal = ContentionGenerator(event.level).GpuInflation();
          step.budget_ms = event.budget_ms;
          step.gpu_available = gpu_available;
          if (event.gof.coasted) {
            step.kind = ReplayStep::Kind::kCoast;
          } else if (event.gof.tail) {
            step.kind = ReplayStep::Kind::kTail;
          } else if (!event.gof.forced) {
            step.heavy = HeavyFromCost(models, event.gof.scheduler_ms, step.gpu_cal);
            m.unmatched += step.heavy.has_value() ? 0 : 1;
          }
          ReplayStepCalls(models, scheduler, step, stream, tracer, m);
          break;
        }
        default:
          break;
      }
    }
    if (demands.size() > 1) {
      m.allocate.Add(tracer.Time("serve.allocate", [&] {
        AllocateBudgets(job.serve.allocator, 1000.0 / job.arrivals.fps, demands);
      }));
    }
  }
  // Freeing the sessions and videos is part of the job too.
  tracer.Time("serve.release", [&] {
    streams.clear();
    sessions.clear();
  });
  tracer.Time("video.release", [&] { videos.clear(); });
}

// The cold-start training pass decomposed into its public calls.
struct TrainingProfile {
  double snippet_data_s = 0.0;
  double label_ms_per_snippet = 0.0;
  std::array<double, kNumFeatureKinds> train_s = {};
  double save_ms = 0.0;
};

TrainingProfile ProfileTraining(const Workbench& wb, int threads, Tracer& tracer,
                                LayerMetrics& m) {
  TrainingProfile p;
  const TrainConfig& config = wb.train_config();
  const BranchSpace& space = BranchSpace::Default();
  // The trainer's split: the last holdout_fraction of the videos tabulate Ben(F).
  Dataset train;
  tracer.Time("video.generate", [&] { train = BuildDataset(config.train_spec, DatasetSplit::kTrain); });
  size_t holdout = std::max<size_t>(
      1, static_cast<size_t>(std::round(config.holdout_fraction *
                                        static_cast<double>(train.videos.size()))));
  train.videos.resize(train.videos.size() - holdout);
  std::vector<SnippetData> data;
  p.snippet_data_s = tracer.Time("pipeline.snippet_data", [&] {
                       data = OfflineTrainer::BuildSnippetData(config, space, train);
                     }) * 1e-6;

  // Probes: a sample of snippets, labelled and featurized the way
  // BuildSnippetData does it, call by call.
  std::vector<SnippetRef> snippets =
      MakeSnippets(train, config.snippet_length, config.snippet_stride);
  constexpr size_t kSampleSnippets = 8;
  double label_us = 0.0;
  size_t sampled = 0;
  for (size_t s = 0; s < kSampleSnippets && !snippets.empty(); ++s) {
    const SnippetRef& snippet = snippets[s * snippets.size() / kSampleSnippets];
    label_us += tracer.Time("probe.mbek.label", [&] {
      for (const Branch& branch : space.branches()) {
        for (uint64_t salt : {config.label_salt, config.label_salt + 1}) {
          ExecutionKernel::SnippetAccuracy(*snippet.video, snippet.start, snippet.length,
                                           branch, salt);
        }
      }
    });
    DetectionList anchor;
    tracer.Time("probe.det.reference_detect", [&] {
      anchor = FasterRcnnSim::Detect(*snippet.video, snippet.start, DetectorConfig{448, 100},
                                     config.label_salt);
    });
    for (int k = 1; k < kNumFeatureKinds; ++k) {
      FeatureKind kind = static_cast<FeatureKind>(k);
      m.extract[static_cast<size_t>(k)].Add(
          tracer.Time("probe.features.extract." + std::string(FeatureName(kind)),
                      [&] { ExtractFeature(kind, *snippet.video, snippet.start, anchor); }));
    }
    ++sampled;
  }
  p.label_ms_per_snippet = Ratio(label_us * 1e-3, static_cast<double>(sampled));

  // The per-kind AccuracyPredictor::Train fan-out, as the trainer runs it;
  // each kind timed on its own worker.
  tracer.Time("nn.train", [&] {
    std::vector<double> secs = ThreadPool::Shared().ParallelMap(
        static_cast<size_t>(kNumFeatureKinds),
        [&](size_t k) {
          FeatureKind kind = static_cast<FeatureKind>(k);
          MlpConfig mlp = AccuracyPredictor::DefaultMlpConfig(
              kind, space.size(), config.hidden_width, config.epochs);
          AccuracyPredictor predictor(kind, mlp);
          Matrix x(data.size(), mlp.layer_dims.front());
          Matrix y(data.size(), space.size());
          for (size_t i = 0; i < data.size(); ++i) {
            std::vector<double> input = predictor.BuildInput(
                data[i].features[0],
                kind == FeatureKind::kLight ? std::vector<double>{} : data[i].features[k]);
            for (size_t j = 0; j < input.size(); ++j) x(i, j) = input[j];
            for (size_t b = 0; b < space.size(); ++b) y(i, b) = data[i].labels[b];
          }
          Clock::time_point t0 = Clock::now();
          predictor.Train(x, y);
          return Since(t0);
        },
        threads);
    std::copy(secs.begin(), secs.end(), p.train_s.begin());
  });

  std::string tmp = CacheDir() + "/perfbench_save_probe.bin";
  p.save_ms = tracer.Time("pipeline.model_save", [&] {
                SaveTrainedModels(wb.models(), config.Fingerprint(), tmp);
              }) * 1e-3;
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  return p;
}

// The trained bundle in the cache directory (run.py gives each run its own).
std::optional<std::string> CachedBundle() {
  for (const auto& entry : std::filesystem::directory_iterator(CacheDir())) {
    std::string name = entry.path().filename().string();
    if (name.rfind("models_", 0) == 0 && entry.path().extension() == ".bin") {
      return entry.path().string();
    }
  }
  return std::nullopt;
}

std::string TracedRun(Workload w, uint64_t seed, int threads, Clock::time_point process_start) {
  Setup setup = DoSetup(w, process_start);
  const TrainedModels& models = *setup.models;
  DigestBook book;
  // The sample: one configuration cycle of single-tenant jobs, or four
  // serving jobs.
  const int samples = IsServe(w) ? 4 : kCycle;
  std::vector<Job> jobs;
  for (int i = 0; i < samples; ++i) {
    jobs.push_back(MakeJob(w, seed, i));
  }

  // Parallel efficiency of the untraced runs at the benchmark's thread count.
  double cpu0 = CpuSeconds();
  Clock::time_point wall0 = Clock::now();
  double sample_frames = 0.0;
  for (const Job& job : jobs) {
    JobOutcome out = RunJob(models, w, job, threads);
    sample_frames += static_cast<double>(out.frames);
    book.Record(job.index, out);
  }
  double sample_cpu_s = CpuSeconds() - cpu0;
  double parallel_eff = Ratio(sample_cpu_s, Since(wall0) * threads);

  // Untraced and traced single-threaded runs of each job, alternating, best of
  // kOverheadReps each: the difference is the tracing overhead.
  constexpr int kOverheadReps = 2;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::vector<std::string> traces(jobs.size());
  std::vector<ServeObservation> observations(jobs.size());
  std::vector<ServeResult> serve_results(jobs.size());
  SchedulerSession::Counters run_counters;
  for (size_t j = 0; j < jobs.size(); ++j) {
    double best_untraced = 0.0;
    double best_traced = 0.0;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
      JobOutcome plain = RunJob(models, w, jobs[j], 1);
      best_untraced = rep == 0 ? plain.host_s : std::min(best_untraced, plain.host_s);
      book.Record(jobs[j].index, plain);

      std::ostringstream trace_os;
      TraceWriter trace(trace_os);
      ServeObservation& obs = observations[j];
      obs = ServeObservation{};
      Clock::time_point job_start = Clock::now();
      int last_round = -1;
      std::function<void(const ServeEvent&)> observer;
      if (IsServe(w)) {
        observer = [&](const ServeEvent& event) {
          obs.events.push_back(event);
          if (event.round != last_round) {
            obs.round_start_us.push_back(Since(job_start) * 1e6);
            last_round = event.round;
          }
        };
      }
      JobOutcome out = RunJob(models, w, jobs[j], 1, &trace, observer);
      best_traced = rep == 0 ? out.host_s : std::min(best_traced, out.host_s);
      book.Record(jobs[j].index, out);
      traces[j] = trace_os.str();
      serve_results[j] = std::move(out.serve);
      if (rep == 0) {
        run_counters.decisions += out.phases.decisions;
        run_counters.decision_reuses += out.phases.decision_reuses;
        run_counters.table_reuses += out.phases.table_reuses;
        run_counters.table_builds += out.phases.table_builds;
        run_counters.switch_row_reuses += out.phases.switch_row_reuses;
      }
    }
    untraced_s += best_untraced;
    traced_s += best_traced;
  }

  // The replay, one root span around everything replayed.
  Tracer tracer(process_start);
  LayerMetrics m;
  std::optional<TrainingProfile> training;
  int root = tracer.Begin("replay");
  if (w == Workload::kColdStart) {
    training = ProfileTraining(*setup.wb, threads, tracer, m);
  }
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (IsServe(w)) {
      ReplayServe(models, jobs[j], observations[j], tracer, m);
    } else if (!ReplaySingleTenant(models, jobs[j], traces[j], tracer, m)) {
      return "";
    }
  }
  double replay_us = tracer.End();
  std::map<std::string, double> self = tracer.SelfTimeByLayer(root);
  const std::string spans_path = CacheDir() + "/spans.jsonl";
  if (!tracer.Write(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_path.c_str());
    return "";
  }

  double model_load_ms = 0.0;
  if (w != Workload::kColdStart) {
    std::optional<std::string> bundle = CachedBundle();
    std::vector<double> load_ms;
    for (int i = 0; i < 5; ++i) {
      Clock::time_point t0 = Clock::now();
      if (!bundle || !LoadTrainedModels(*bundle, setup.wb->train_config().Fingerprint(),
                                        BranchSpace::Default())) {
        std::fprintf(stderr, "perfbench: no loadable model bundle in %s\n", CacheDir().c_str());
        return "";
      }
      load_ms.push_back(Since(t0) * 1e3);
    }
    model_load_ms = Percentile(load_ms, 0.5);
  }

  JsonOut json;
  json.Num("video.generate_ms_per_video", m.generate_video.Mean() * 1e-3);
  json.Num("video.render_us", m.render.Mean());
  json.Num("features.light_us", m.light.Mean());
  for (FeatureKind kind : kHeavyFeatures) {
    size_t k = static_cast<size_t>(kind);
    std::string name(FeatureName(kind));
    json.Num("features.extract_us." + name, m.extract[k].Mean());
    json.Num("features.heavy_frac." + name,
             Ratio(static_cast<double>(m.heavy_uses[k]), static_cast<double>(m.decisions)));
  }
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    std::string name(FeatureName(static_cast<FeatureKind>(k)));
    json.Num("nn.predict_us." + name, m.predict[static_cast<size_t>(k)].Mean());
    json.Num("nn.train_s." + name, training ? training->train_s[static_cast<size_t>(k)] : 0.0);
  }
  json.Num("features.unmatched_frac",
           Ratio(static_cast<double>(m.unmatched), static_cast<double>(m.decisions)));
  json.Num("sched.decide_us", m.decide.Mean());
  json.Num("sched.select_features_us", m.select.Mean());
  // Session reuse as the runner reports it; the serving path decides without
  // a session, so these read 0 there.
  const SchedulerSession::Counters& c = run_counters;
  json.Num("sched.session.decision_reuse_frac",
           Ratio(static_cast<double>(c.decision_reuses), static_cast<double>(c.decisions)));
  json.Num("sched.session.table_reuse_frac",
           Ratio(static_cast<double>(c.table_reuses),
                 static_cast<double>(c.table_reuses + c.table_builds)));
  json.Num("sched.session.switch_row_reuse_frac",
           Ratio(static_cast<double>(c.switch_row_reuses), static_cast<double>(c.table_builds)));
  json.Num("mbek.detect_anchor_us", m.detect.Mean());
  json.Num("mbek.track_us_per_frame", Ratio(m.track_us, static_cast<double>(m.track_frames)));
  json.Num("mbek.coast_us_per_frame", Ratio(m.coast_us, static_cast<double>(m.coast_frames)));
  json.Num("mbek.label_ms_per_snippet", training ? training->label_ms_per_snippet : 0.0);
  json.Num("vision.ap_add_frame_us", m.ap_add.Mean());
  json.Num("pipeline.snippet_data_s", training ? training->snippet_data_s : 0.0);
  json.Num("pipeline.model_load_ms", model_load_ms);
  json.Num("pipeline.model_save_ms", training ? training->save_ms : 0.0);
  json.Num("pipeline.parallel_eff", parallel_eff);
  json.Num("pipeline.cpu_ms_per_kframe", Ratio(sample_cpu_s * 1e3, sample_frames / 1e3));
  json.Num("pipeline.setup_cpu_s", setup.setup_cpu_s);

  std::vector<double> round_ms;
  double rounds = 0.0, queued_rounds = 0.0, streams = 0.0, coasted = 0.0, evictions = 0.0;
  double demotions = 0.0, injected = 0.0, absorbed = 0.0;
  for (size_t j = 0; j < jobs.size() && IsServe(w); ++j) {
    const std::vector<double>& starts = observations[j].round_start_us;
    for (size_t r = 1; r < starts.size(); ++r) {
      round_ms.push_back((starts[r] - starts[r - 1]) * 1e-3);
    }
    const ServeResult& result = serve_results[j];
    rounds += result.rounds;
    coasted += result.coasted_rounds;
    evictions += result.evictions;
    injected += result.faults_injected;
    absorbed += result.faults_absorbed;
    for (const StreamOutcome& stream : result.streams) {
      queued_rounds += stream.rounds_queued;
      streams += 1.0;
    }
    for (const ServeEvent& event : observations[j].events) {
      demotions += event.kind == ServeEvent::Kind::kDemote ? 1.0 : 0.0;
    }
  }
  double per_job = IsServe(w) ? 1.0 / static_cast<double>(jobs.size()) : 0.0;
  json.Num("serve.round_ms_p50", Percentile(round_ms, 0.5));
  json.Num("serve.round_ms_p99", Percentile(round_ms, 0.99));
  json.Num("serve.allocate_us", m.allocate.Mean());
  json.Num("serve.admission_us", m.admission.Mean());
  json.Num("serve.rounds_per_job", rounds * per_job);
  json.Num("serve.queue_rounds_mean", Ratio(queued_rounds, streams));
  json.Num("serve.coasted_rounds", coasted * per_job);
  json.Num("serve.demotions", demotions * per_job);
  json.Num("serve.evictions", evictions * per_job);
  json.Num("platform.fault_absorb_frac", Ratio(absorbed, injected));

  const double shared_us = replay_us - self["probe"];
  for (const char* layer :
       {"video", "nn", "sched", "mbek", "vision", "serve", "pipeline", "det", "untraced"}) {
    json.Num(std::string("share.") + layer, 100.0 * Ratio(self[layer], shared_us));
  }
  json.Num("trace.overhead_pct", 100.0 * Ratio(traced_s - untraced_s, untraced_s));
  json.Num("trace.replay_s", shared_us * 1e-6);
  json.Book(book);
  json.Pinned(RunPinned(setup, w, threads));
  return json.str();
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  Clock::time_point process_start = Clock::now();
  std::string mode = argc > 1 ? argv[1] : "";
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench: unexpected argument %s\n", argv[i]);
      return 2;
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  std::optional<Workload> w = ParseWorkload(flags["workload"]);
  if (!w || (mode != "setup" && mode != "run" && mode != "trace")) {
    std::fprintf(stderr,
                 "usage: perfbench setup|run|trace --workload "
                 "cold_start|single_tenant|serve|serve_faults [--seed N] [--seconds T] "
                 "[--threads N] [--min-jobs N]\n");
    return 2;
  }
  uint64_t seed = flags.count("seed") ? std::strtoull(flags["seed"].c_str(), nullptr, 10) : 1;
  double seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str()) : 10.0;
  int threads = flags.count("threads") ? std::atoi(flags["threads"].c_str()) : 4;
  int min_jobs =
      flags.count("min-jobs") ? std::atoi(flags["min-jobs"].c_str()) : kMinTimedJobs;
  if (threads < 1) {
    std::fprintf(stderr, "perfbench: --threads must be >= 1\n");
    return 2;
  }
  SetDefaultThreadCount(threads);

  std::string out;
  if (mode == "setup") {
    Setup setup = DoSetup(*w, process_start);
    JsonOut json;
    json.Num("setup_s", setup.setup_s);
    out = json.str();
  } else if (mode == "run") {
    out = TimedRun(*w, seed, seconds, min_jobs, threads, process_start);
  } else {
    out = TracedRun(*w, seed, threads, process_start);
  }
  if (out.empty()) {
    return 1;
  }
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Main(argc, argv); }
