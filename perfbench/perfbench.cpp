// The repository benchmark: the paper's three headline schedulers (ws,
// uslcws, signal) on three closed-loop workloads, measured from outside
// through the public API of deque/, sched/, parallel/ and pbbs/. README.md
// in this directory has the workload, metric and prediction tables.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//             [--tiny]
//   perfbench --counts
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (span self times, sync-op counters, layer probes). The last stdout line
// is the result object. --tiny shrinks every size (selftest.py); --counts
// prints the P=1 fib(27) sync-op counts of each scheduler.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "deque/abp_deque.h"
#include "deque/split_deque.h"
#include "parallel/integer_sort.h"
#include "parallel/parallel_for.h"
#include "parallel/sample_sort.h"
#include "parallel/scan.h"
#include "pbbs/benchmarks/bfs.h"
#include "pbbs/benchmarks/comparison_sort.h"
#include "pbbs/benchmarks/integer_sort.h"
#include "pbbs/benchmarks/suffix_array.h"
#include "pbbs/graph_gen.h"
#include "pbbs/sequence_gen.h"
#include "pbbs/text_gen.h"
#include "sched/scheduler.h"
#include "support/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using lcws::hash64;

// nproc - 1 on the 4-CPU host the benchmark was tuned on: the spare CPU
// absorbs host noise, which at P = 4 spread skew_rounds' p90 by ~50%.
constexpr std::size_t kWorkers = 3;
constexpr int kNumSched = 3;
constexpr const char* kSchedNames[kNumSched] = {"ws", "uslcws", "signal"};
// A rep that runs longer than this is cancelled and counted as failed.
constexpr auto kRepCap = std::chrono::seconds(10);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time, all threads.
double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-3;
}

// CPU time the hypervisor stole from this guest, summed over its CPUs, in
// clock ticks (the steal column of /proc/stat); -1 where unavailable.
long long stolen_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<long long>(v[7]) : -1;
}

// Whether the host stole more than 2% of the guest's CPU capacity over a
// block that ran `ns` and moved the steal counter from s0 to s1.
bool host_stole(long long s0, long long s1, std::int64_t ns) {
  if (s0 < 0 || s1 < 0) return false;
  static const double capacity_per_s =
      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)) *
      static_cast<double>(sysconf(_SC_CLK_TCK));
  const double limit = std::max(1.0, 0.02 * capacity_per_s * ns * 1e-9);
  return static_cast<double>(s1 - s0) > limit;
}

void spin_ns(std::int64_t ns) {
  const std::int64_t end = now_ns() + ns;
  while (now_ns() < end) {
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Nearest-rank p90.
double p90(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(0.9 * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// Input sizes; --tiny shrinks them all for the self-test.
struct sizes {
  unsigned fib = 30;
  int skew_rounds = 20;
  int skew_leaves = 64;
  std::int64_t skew_min_ns = 2'000, skew_max_ns = 256'000;
  std::int64_t gap_ns = 350'000;
  // A quarter of the suite's default (scale 1.0) sizes: at full size a
  // rep takes ~170 ms, too few reps fit in a run for a p90, and too few
  // blocks for some to escape the host's steal bursts.
  std::size_t isort_n = 500'000, csort_n = 250'000, bfs_n = 250'000,
              sa_n = 75'000;
  std::size_t deque_ops = 1 << 20, steal_batches = 256;
  std::size_t toolkit_n = 1 << 20, sample_sort_n = 1 << 18;
  int probe_reps = 5, empty_runs = 200, handoffs = 30, cold_runs = 8,
      kernel_reps = 3;
  std::int64_t cold_idle_ms = 60;

  static sizes tiny() {
    sizes z;
    z.fib = 20;
    z.skew_rounds = 3;
    z.skew_max_ns = 32'000;
    z.isort_n = 20'000;
    z.csort_n = 10'000;
    z.bfs_n = 10'000;
    z.sa_n = 3'000;
    z.deque_ops = 1 << 12;
    z.steal_batches = 4;
    z.toolkit_n = 1 << 12;
    z.sample_sort_n = 1 << 12;
    z.probe_reps = 2;
    z.empty_runs = 5;
    z.handoffs = 3;
    z.cold_runs = 2;
    z.kernel_reps = 1;
    z.cold_idle_ms = 5;
    return z;
  }
};

// ---- span recorder --------------------------------------------------------

// Spans around each layer call the benchmark makes: name, start, end and
// parent, kept in memory and written when the run ends. All spans are
// opened on the calling thread, so children nest without overlap and a
// span's self time is its duration minus its children's.
class spans {
 public:
  explicit spans(bool on) : on_(on) {
    if (on_) log_.reserve(1 << 16);
  }

  int begin(const char* layer, const char* sched) {
    if (!on_) return -1;
    const int id = static_cast<int>(log_.size());
    log_.push_back({layer, sched, now_ns(), 0,
                    open_.empty() ? -1 : open_.back(), 0});
    open_.push_back(id);
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    span& s = log_[static_cast<std::size_t>(id)];
    s.end = now_ns();
    open_.pop_back();
    if (s.parent >= 0) {
      log_[static_cast<std::size_t>(s.parent)].child_ns += s.end - s.start;
    }
  }

  // Durations (ms) of the spans of one layer, one scheduler.
  std::vector<double> durations_ms(const std::string& layer,
                                   const std::string& sched) const {
    std::vector<double> out;
    for (const span& s : log_) {
      if (layer == s.layer && sched == s.sched) {
        out.push_back((s.end - s.start) * 1e-6);
      }
    }
    return out;
  }

  // Per-layer self-time table, one row per layer name and scheduler tag.
  std::string self_time_report() const {
    struct row {
      std::size_t count = 0;
      std::int64_t total = 0, self = 0;
    };
    std::map<std::string, row> rows;
    std::int64_t all_self = 0;
    for (const span& s : log_) {
      row& r = rows[std::string(s.layer) + " [" + s.sched + "]"];
      ++r.count;
      r.total += s.end - s.start;
      r.self += s.end - s.start - s.child_ns;
      all_self += s.end - s.start - s.child_ns;
    }
    std::string out = "layer [scheduler]                  spans    total_ms "
                      "    self_ms  self_share\n";
    char line[160];
    for (const auto& [name, r] : rows) {
      std::snprintf(line, sizeof line, "%-32s %8zu %11.3f %11.3f %10.1f%%\n",
                    name.c_str(), r.count, r.total * 1e-6, r.self * 1e-6,
                    all_self == 0 ? 0.0 : 100.0 * r.self / all_self);
      out += line;
    }
    return out;
  }

  std::string json() const {
    std::string out = "[";
    char buf[256];
    for (std::size_t i = 0; i < log_.size(); ++i) {
      const span& s = log_[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\":%zu,\"name\":\"%s\",\"sched\":\"%s\","
                    "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                    "\"self_ns\":%lld}",
                    i == 0 ? "" : ",\n", i, s.layer, s.sched,
                    static_cast<long long>(s.start),
                    static_cast<long long>(s.end), s.parent,
                    static_cast<long long>(s.end - s.start - s.child_ns));
      out += buf;
    }
    return out + "]";
  }

 private:
  struct span {
    const char* layer;
    const char* sched;
    std::int64_t start, end;
    int parent;
    std::int64_t child_ns;
  };
  bool on_;
  std::vector<span> log_;
  std::vector<int> open_;
};

class scoped_span {
 public:
  scoped_span(spans& sp, const char* layer, const char* sched)
      : sp_(sp), id_(sp.begin(layer, sched)) {}
  ~scoped_span() { sp_.end(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  spans& sp_;
  int id_;
};

// ---- failure accounting ---------------------------------------------------

struct tally {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 10) errors.push_back(what);
  }
};

// Cancels the active run() of a rep that outlives kRepCap, so a
// pathological kernel fails instead of hanging the benchmark. One thread
// serves the whole process; arming costs a lock and a notify per rep.
class rep_cap {
 public:
  rep_cap() : thread_([this] { loop(); }) {}
  ~rep_cap() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  rep_cap(const rep_cap&) = delete;
  rep_cap& operator=(const rep_cap&) = delete;

  void arm(std::function<void()> cancel) {
    {
      std::lock_guard<std::mutex> lock(m_);
      cancel_ = std::move(cancel);
      deadline_ = std::chrono::steady_clock::now() + kRepCap;
      armed_ = true;
    }
    cv_.notify_all();
  }

  void disarm() {
    std::lock_guard<std::mutex> lock(m_);
    armed_ = false;
    cancel_ = nullptr;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(m_);
    while (!stop_) {
      if (!armed_) {
        cv_.wait(lock);
      } else if (std::chrono::steady_clock::now() < deadline_) {
        cv_.wait_until(lock, deadline_);
      } else {
        // Called under the lock so disarm() (and with it the pool's
        // destruction) waits for it. A rep may span several run()s:
        // repeat until the rep gives up and disarms.
        cancel_();
        cv_.wait_for(lock, std::chrono::milliseconds(10));
      }
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false, armed_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::function<void()> cancel_;
  std::thread thread_;  // last: starts after every field it reads
};

// ---- pools ----------------------------------------------------------------

using ws_pool = lcws::scheduler<lcws::ws_policy>;
using uslcws_pool = lcws::scheduler<lcws::uslcws_policy>;
using signal_pool = lcws::scheduler<lcws::signal_policy>;

// Builds the pool of scheduler `s` (index into kSchedNames), hands it to f
// and tears it down.
template <typename F>
void with_pool(int s, std::size_t workers, F&& f) {
  switch (s) {
    case 0: {
      ws_pool pool(workers);
      f(pool);
      return;
    }
    case 1: {
      uslcws_pool pool(workers);
      f(pool);
      return;
    }
    default: {
      signal_pool pool(workers);
      f(pool);
      return;
    }
  }
}

std::string g_hw_status = "unknown";

struct rep_result {
  bool ok = false;
  double wall_ms = 0, cpu_ms = 0;
};

class rep_clock {
 public:
  rep_clock() : wall_(now_ns()), cpu_(cpu_ms()) {}
  void add_to(rep_result& r) const {
    r.wall_ms += (now_ns() - wall_) * 1e-6;
    r.cpu_ms += cpu_ms() - cpu_;
  }

 private:
  std::int64_t wall_;
  double cpu_;
};

// ---- workloads ------------------------------------------------------------
// Each has setup(seed, spans), the input generation that setup_s times,
// and rep(pool, spans) -> rep_result, one timed and checked unit.

template <typename Pool>
std::uint64_t fib(Pool& pool, unsigned n) {
  if (n < 2) return n;
  std::uint64_t a = 0, b = 0;
  pool.pardo([&] { a = fib(pool, n - 1); }, [&] { b = fib(pool, n - 2); });
  return a + b;
}

std::uint64_t fib_serial(unsigned n) {
  std::uint64_t a = 0, b = 1;
  for (unsigned i = 0; i < n; ++i) a = std::exchange(b, a + b);
  return a;
}

// fib(30) by pardo with empty leaves: 1,346,268 spawns, almost no steals,
// so the time is push/pop_bottom and join.
class spawn_fine {
 public:
  explicit spawn_fine(const sizes& z) : n_(z.fib), expect_(fib_serial(n_)) {}
  void setup(std::uint64_t, spans&) {}

  template <typename Pool>
  rep_result rep(Pool& pool, spans& sp) {
    rep_result r;
    rep_clock clock;
    std::uint64_t v = 0;
    {
      scoped_span s(sp, "run", Pool::name());
      pool.run([&] { v = fib(pool, n_); });
    }
    clock.add_to(r);
    r.ok = v == expect_;
    return r;
  }

 private:
  unsigned n_;
  std::uint64_t expect_;
};

// Rounds of run(parallel_for(64 leaves, grain 1)) with leaf costs drawn
// from the seed, each followed by a serial gap on the caller: owners sit
// in long leaves while thieves hunt, so steals, exposure answers and
// park/wake set the time.
class skew_rounds {
 public:
  explicit skew_rounds(const sizes& z) : z_(z) {}

  void setup(std::uint64_t seed, spans&) {
    seed_ = seed;
    const auto n = static_cast<std::size_t>(z_.skew_rounds * z_.skew_leaves);
    cost_ns_.resize(n);
    out_.assign(n, 0);
    lcws::xoshiro256 rng(seed);
    expect_ = 0;
    for (std::size_t i = 0; i < n; ++i) {
      cost_ns_[i] = z_.skew_min_ns +
                    static_cast<std::int64_t>(
                        rng() % static_cast<std::uint64_t>(
                                    z_.skew_max_ns - z_.skew_min_ns + 1));
      expect_ += leaf_value(i);
    }
  }

  template <typename Pool>
  rep_result rep(Pool& pool, spans& sp) {
    std::fill(out_.begin(), out_.end(), 0);
    rep_result r;
    rep_clock clock;
    const auto leaves = static_cast<std::size_t>(z_.skew_leaves);
    for (int round = 0; round < z_.skew_rounds; ++round) {
      const std::size_t base = static_cast<std::size_t>(round) * leaves;
      {
        scoped_span s(sp, "run", Pool::name());
        pool.run([&] {
          lcws::par::parallel_for(
              pool, 0, leaves,
              [&](std::size_t l) {
                spin_ns(cost_ns_[base + l]);
                out_[base + l] = leaf_value(base + l);
              },
              1);
        });
      }
      scoped_span s(sp, "gap", Pool::name());
      spin_ns(z_.gap_ns);
    }
    clock.add_to(r);
    std::uint64_t sum = 0;
    for (const auto v : out_) sum += v;
    r.ok = sum == expect_;
    return r;
  }

 private:
  std::uint64_t leaf_value(std::size_t i) const {
    return hash64(seed_ ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
  }

  sizes z_;
  std::uint64_t seed_ = 0, expect_ = 0;
  std::vector<std::int64_t> cost_ns_;
  std::vector<std::uint64_t> out_;
};

// Outputs of the four kernels compare equal iff they are the same answer
// (sorted sequences, BFS distances and suffix arrays are unique).
bool same(const lcws::pbbs::integer_sort_bench::output& a,
          const lcws::pbbs::integer_sort_bench::output& b) {
  return a.sorted == b.sorted;
}
bool same(const lcws::pbbs::comparison_sort_bench::output& a,
          const lcws::pbbs::comparison_sort_bench::output& b) {
  return a.sorted == b.sorted;
}
bool same(const lcws::pbbs::bfs_bench::output& a,
          const lcws::pbbs::bfs_bench::output& b) {
  return a.distance == b.distance;
}
bool same(const lcws::pbbs::suffix_array_bench::output& a,
          const lcws::pbbs::suffix_array_bench::output& b) {
  return a.sa == b.sa;
}

// One PBBS kernel with its input and the first output Bench::check passed.
// Later outputs are checked by equality with that one: Bench::check
// re-sorts or re-searches serially, which costs several kernel runs.
template <typename Bench>
struct kernel {
  kernel(const char* run, const char* make) : span_run(run), span_make(make) {}

  const char* span_run;   // "kernel.<short name>"
  const char* span_make;  // "make.<short name>"
  typename Bench::input in{};
  std::optional<typename Bench::output> ref;
  double make_s = 0, check_ms = 0;

  template <typename Make>
  void make(spans& sp, Make&& gen) {
    scoped_span s(sp, span_make, "-");
    const std::int64_t t0 = now_ns();
    in = gen();
    make_s = (now_ns() - t0) * 1e-9;
    ref.reset();
  }

  // Runs the kernel under `pool` (its spans tagged `who`), adds its time
  // to r and returns whether the output is right.
  template <typename Pool>
  bool run(Pool& pool, const char* who, spans& sp, rep_result& r) {
    typename Bench::output out;
    {
      scoped_span s(sp, span_run, who);
      rep_clock clock;
      out = Bench::run(pool, in);
      clock.add_to(r);
    }
    if (ref) return same(out, *ref);
    scoped_span s(sp, "check", "-");
    const std::int64_t t0 = now_ns();
    const bool ok = Bench::check(in, out);
    check_ms = (now_ns() - t0) * 1e-6;
    if (ok) ref = std::move(out);
    return ok;
  }
};

// Four PBBS kernels, sized by `sizes`: integerSort/randomSeq_int,
// comparisonSort/randomSeq_double, breadthFirstSearch/rMatGraph and
// suffixArray/trigramString. nearestNeighbors is left out: its kd-tree
// query runs in quadratic time and takes over a minute at default size.
class pbbs_mix {
 public:
  using isort_t = lcws::pbbs::integer_sort_bench;
  using csort_t = lcws::pbbs::comparison_sort_bench;
  using bfs_t = lcws::pbbs::bfs_bench;
  using sa_t = lcws::pbbs::suffix_array_bench;

  explicit pbbs_mix(const sizes& z) : z_(z) {}

  // The same inputs as each kernel's Bench::make, but drawn from `seed`.
  void setup(std::uint64_t seed, spans& sp) {
    isort.make(sp, [&] {
      isort_t::input in;
      in.data = lcws::pbbs::random_seq(z_.isort_n, std::uint64_t{1} << 27,
                                       seed * 4 + 1);
      in.key_bits = 27;
      return in;
    });
    csort.make(sp, [&] {
      return csort_t::input{
          lcws::pbbs::random_double_seq(z_.csort_n, seed * 4 + 2)};
    });
    bfs.make(sp, [&] {
      return bfs_t::input{std::make_shared<lcws::pbbs::graph>(
                              lcws::pbbs::rmat_graph(z_.bfs_n / 8, z_.bfs_n,
                                                     seed * 4 + 3)),
                          0, false};
    });
    sa.make(sp, [&] {
      auto corpus = lcws::pbbs::trigram_words(z_.sa_n / 5 + 1, seed * 4 + 4);
      auto text = std::make_shared<std::string>(std::move(corpus.text));
      if (text->size() > z_.sa_n) text->resize(z_.sa_n);
      return sa_t::input{std::move(text)};
    });
  }

  // A rep's time is the four kernels' only, not the output checks.
  template <typename Pool>
  rep_result rep(Pool& pool, spans& sp) {
    const char* who = Pool::name();
    rep_result r;
    r.ok = isort.run(pool, who, sp, r);
    r.ok = csort.run(pool, who, sp, r) && r.ok;
    r.ok = bfs.run(pool, who, sp, r) && r.ok;
    r.ok = sa.run(pool, who, sp, r) && r.ok;
    return r;
  }

  kernel<isort_t> isort{"kernel.isort", "make.isort"};
  kernel<csort_t> csort{"kernel.csort", "make.csort"};
  kernel<bfs_t> bfs{"kernel.bfs", "make.bfs"};
  kernel<sa_t> sa{"kernel.sa", "make.sa"};

 private:
  sizes z_;
};

// ---- measurement ----------------------------------------------------------

// Timed reps of the blocks the host left alone, and of all blocks; the
// sync-op counters cover all blocks.
struct sched_stats {
  std::vector<double> wall_ms, cpu_ms, all_wall_ms, all_cpu_ms;
  lcws::stats::op_counters ops;
  std::uint64_t counted_reps = 0, blocks = 0, stolen_blocks = 0;
};
using all_stats = std::array<sched_stats, kNumSched>;

template <typename W, typename Pool>
rep_result guarded_rep(W& w, Pool& pool, spans& sp, rep_cap& cap,
                       tally& t) {
  rep_result r;
  std::string what = std::string(Pool::name()) + ": wrong output";
  cap.arm([&pool] { pool.cancel_run(); });
  try {
    scoped_span s(sp, "rep", Pool::name());
    r = w.rep(pool, sp);
  } catch (const std::exception& e) {
    r.ok = false;
    what = std::string(Pool::name()) + ": " + e.what();
  }
  cap.disarm();
  if (r.ok && r.wall_ms > std::chrono::duration<double, std::milli>(kRepCap)
                              .count()) {
    r.ok = false;
    what = std::string(Pool::name()) + ": rep over the wall-clock cap";
  }
  t.record(r.ok, what);
  return r;
}

// Set-up times, one per rotation cycle, and those of the cycles the host
// left alone.
struct setup_stats {
  std::vector<double> clean, all;
};

// Closed loop, one pool alive at a time. The schedulers rotate in blocks
// of `block` timed reps (each block after one untimed warm-up rep on the
// fresh pool) until `seconds` have passed, so host noise lands on all
// three alike. The seed picks which scheduler leads the rotation. With
// `setups`, every `setup_every`-th rotation cycle starts with one call of
// time_setup.
//
// Other tenants of the host take CPU time from the guest in bursts that
// stretch reps to twice their length. A block (or, for set-up times, a
// cycle) the host stole from (host_stole) is run and checked, but its
// times are kept apart and used only if no block was left alone.
template <typename W>
void measure(W& w, int block, double seconds, std::uint64_t seed, spans& sp,
             rep_cap& cap, tally& t, all_stats& st,
             const std::function<double()>& time_setup = nullptr,
             setup_stats* setups = nullptr, int setup_every = 1) {
  const std::int64_t t0 = now_ns();
  for (int cycle = 0;; ++cycle) {
    const bool timed = setups != nullptr && cycle % setup_every == 0;
    const long long cycle_steal = stolen_ticks();
    const std::int64_t c0 = now_ns();
    const double setup_s = timed ? time_setup() : 0;
    for (int k = 0; k < kNumSched; ++k) {
      const int s = static_cast<int>((seed + k) % kNumSched);
      sched_stats& x = st[s];
      with_pool(s, kWorkers, [&](auto& pool) {
        guarded_rep(w, pool, sp, cap, t);
        pool.reset_counters();
        const long long steal0 = stolen_ticks();
        const std::int64_t b0 = now_ns();
        const std::size_t first = x.all_wall_ms.size();
        for (int i = 0; i < block; ++i) {
          const rep_result r = guarded_rep(w, pool, sp, cap, t);
          if (!r.ok) continue;
          x.all_wall_ms.push_back(r.wall_ms);
          x.all_cpu_ms.push_back(r.cpu_ms);
        }
        ++x.blocks;
        if (host_stole(steal0, stolen_ticks(), now_ns() - b0)) {
          ++x.stolen_blocks;
        } else {
          x.wall_ms.insert(x.wall_ms.end(), x.all_wall_ms.begin() + first,
                           x.all_wall_ms.end());
          x.cpu_ms.insert(x.cpu_ms.end(), x.all_cpu_ms.begin() + first,
                          x.all_cpu_ms.end());
        }
        const auto prof = pool.profile();
        x.ops += prof.totals;
        x.counted_reps += static_cast<std::uint64_t>(block);
        g_hw_status = prof.hw.status;
      });
    }
    if (timed) {
      setups->all.push_back(setup_s);
      if (!host_stole(cycle_steal, stolen_ticks(), now_ns() - c0)) {
        setups->clean.push_back(setup_s);
      }
    }
    if ((now_ns() - t0) * 1e-9 >= seconds) break;
  }
  for (sched_stats& x : st) {
    if (x.wall_ms.empty()) {
      x.wall_ms = x.all_wall_ms;
      x.cpu_ms = x.all_cpu_ms;
    }
  }
}

// Input generation plus one pool of each scheduler, on a fresh workload so
// the measured one keeps its inputs and checked outputs.
template <typename W>
double timed_setup(const sizes& z, std::uint64_t seed) {
  spans off(false);
  const std::int64_t t0 = now_ns();
  W w(z);
  w.setup(seed, off);
  for (int k = 0; k < kNumSched; ++k) with_pool(k, kWorkers, [](auto&) {});
  return (now_ns() - t0) * 1e-9;
}

// ---- metrics --------------------------------------------------------------

class metrics {
 public:
  void put(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }

  std::string json() const {
    std::string out = "{";
    char buf[160];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", rows_[i].name.c_str(),
                    std::isfinite(rows_[i].value) ? rows_[i].value : 0.0,
                    rows_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<row> rows_;
};

std::string key(int s, const char* name) {
  return std::string(kSchedNames[s]) + "." + name;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

// Sync-op, steal, exposure and park counters per rep of the workload.
void put_counters(metrics& m, const all_stats& st) {
  for (int s = 0; s < kNumSched; ++s) {
    const auto& c = st[s].ops;
    const double reps = static_cast<double>(std::max<std::uint64_t>(
        st[s].counted_reps, 1));
    const auto per_rep = [&](std::uint64_t v) { return v / reps; };
    m.put(key(s, "fences_per_ktask"), 1e3 * ratio(c.fences, c.pushes),
          "1/ktask");
    m.put(key(s, "cas_per_ktask"), 1e3 * ratio(c.cas, c.pushes), "1/ktask");
    m.put(key(s, "tasks"), per_rep(c.pushes), "count");
    m.put(key(s, "steal_attempts"), per_rep(c.steal_attempts), "count");
    m.put(key(s, "steals"), per_rep(c.steals), "count");
    m.put(key(s, "steal_success"), ratio(c.steals, c.steal_attempts),
          "ratio");
    m.put(key(s, "exposure_requests"), per_rep(c.exposure_requests),
          "count");
    m.put(key(s, "exposures"), per_rep(c.exposures), "count");
    m.put(key(s, "exposed_unstolen"), ratio(c.pops_public, c.exposures),
          "ratio");
    m.put(key(s, "signals"), per_rep(c.signals_sent), "count");
    m.put(key(s, "parks"), per_rep(c.parks), "count");
    m.put(key(s, "wakes"), per_rep(c.wakes), "count");
    m.put(key(s, "idle_ms"), per_rep(c.idle_ns) * 1e-6, "ms");
  }
}

// ---- layer probes (traced run) --------------------------------------------

template <typename Deque, typename Pop>
double push_pop_ns(const sizes& z, spans& sp, Pop pop) {
  std::vector<double> per_op;
  Deque d(1024);
  int task = 0;
  for (int r = 0; r < z.probe_reps; ++r) {
    scoped_span s(sp, "deque", "-");
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < z.deque_ops; ++i) {
      d.push_bottom(&task);
      if (pop(d) != &task) std::abort();
    }
    per_op.push_back(static_cast<double>(now_ns() - t0) / z.deque_ops);
  }
  return median(per_op);
}

// The owner fills a batch of `kBatch` tasks (timing only what `fill`
// reports, e.g. the exposures), one thief thread steals them all with
// pop_top, the owner resets. Returns ns per stolen task: owner's timed
// part plus the thief's pop_top loop.
template <typename Deque, typename Fill, typename Reset>
double steal_ns(const sizes& z, spans& sp, tally& t, const char* what,
                Fill fill, Reset reset) {
  constexpr std::size_t kBatch = 1024;
  Deque d(kBatch * 2);
  std::atomic<int> turn{0};  // 0 owner, 1 thief, 2 stop
  std::int64_t owner_ns = 0, thief_ns = 0;
  std::size_t stolen = 0;
  std::thread thief([&] {
    for (;;) {
      int p;
      while ((p = turn.load(std::memory_order_acquire)) == 0) {
      }
      if (p == 2) return;
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (d.pop_top().status == lcws::steal_status::stolen) ++stolen;
      }
      thief_ns += now_ns() - t0;
      turn.store(0, std::memory_order_release);
    }
  });
  {
    scoped_span s(sp, "deque", "-");
    for (std::size_t b = 0; b < z.steal_batches; ++b) {
      owner_ns += fill(d, kBatch);
      turn.store(1, std::memory_order_release);
      while (turn.load(std::memory_order_acquire) != 0) {
      }
      reset(d);
    }
  }
  turn.store(2, std::memory_order_release);
  thief.join();
  t.record(stolen == z.steal_batches * kBatch,
           std::string(what) + ": lost tasks");
  return static_cast<double>(owner_ns + thief_ns) /
         static_cast<double>(std::max<std::size_t>(stolen, 1));
}

void deque_probes(const sizes& z, spans& sp, tally& t, metrics& m) {
  using abp = lcws::abp_deque<int>;
  using split = lcws::split_deque<int>;
  m.put("deque.abp.push_pop_ns",
        push_pop_ns<abp>(z, sp, [](abp& d) { return d.pop_bottom(); }), "ns");
  m.put("deque.split.push_pop_ns",
        push_pop_ns<split>(z, sp,
                           [](split& d) { return d.pop_bottom_original(); }),
        "ns");
  m.put("deque.split.push_pop_safe_ns",
        push_pop_ns<split>(
            z, sp, [](split& d) { return d.pop_bottom_signal_safe(); }),
        "ns");
  static int task = 0;
  m.put("deque.abp.steal_ns",
        steal_ns<abp>(
            z, sp, t, "deque.abp",
            [](abp& d, std::size_t n) {
              for (std::size_t i = 0; i < n; ++i) d.push_bottom(&task);
              return std::int64_t{0};
            },
            [](abp& d) { d.pop_bottom(); }),
        "ns");
  m.put("deque.split.expose_steal_ns",
        steal_ns<split>(
            z, sp, t, "deque.split",
            [](split& d, std::size_t n) {
              for (std::size_t i = 0; i < n; ++i) d.push_bottom(&task);
              const std::int64_t t0 = now_ns();
              for (std::size_t i = 0; i < n; ++i) d.expose_one();
              return now_ns() - t0;
            },
            [](split& d) { d.pop_public_bottom(); }),
        "ns");
}

// run() of an empty body on a warm pool; the delay from pardo to the start
// of its right branch while the left spins 1 ms (the exposure round trip
// seen from user code); and a small run() after the pool idled, when its
// workers have parked.
template <typename Pool>
void sched_probes(Pool& pool, const sizes& z, spans& sp, tally& t,
                  metrics& m, int s) {
  std::vector<double> empty, handoff, cold;
  pool.run([] {});
  for (int i = 0; i < z.empty_runs; ++i) {
    scoped_span span(sp, "run", Pool::name());
    const std::int64_t t0 = now_ns();
    pool.run([] {});
    empty.push_back((now_ns() - t0) * 1e-3);
  }
  for (int i = 0; i < z.handoffs; ++i) {
    scoped_span span(sp, "run", Pool::name());
    std::int64_t forked = 0, started = 0;
    pool.run([&] {
      forked = now_ns();
      pool.pardo([] { spin_ns(1'000'000); }, [&] { started = now_ns(); });
    });
    handoff.push_back((started - forked) * 1e-3);
  }
  std::atomic<int> leaves{0};
  for (int i = 0; i < z.cold_runs; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(z.cold_idle_ms));
    scoped_span span(sp, "run", Pool::name());
    const std::int64_t t0 = now_ns();
    pool.run([&] {
      lcws::par::parallel_for(
          pool, 0, 64,
          [&](std::size_t) {
            spin_ns(10'000);
            leaves.fetch_add(1, std::memory_order_relaxed);
          },
          1);
    });
    cold.push_back((now_ns() - t0) * 1e-3);
  }
  t.record(leaves.load() == 64 * z.cold_runs,
           std::string(Pool::name()) + ": cold run lost leaves");
  m.put(key(s, "run_empty_us"), median(empty), "us");
  m.put(key(s, "handoff_us"), median(handoff), "us");
  m.put(key(s, "cold_run_us"), median(cold), "us");
}

// Fixed-size toolkit calls, per iteration or element.
struct toolkit_inputs {
  std::vector<std::uint64_t> keys, keys_sorted;
  std::vector<double> reals, reals_sorted;

  toolkit_inputs(const sizes& z, std::uint64_t seed)
      : keys(lcws::pbbs::random_seq(z.toolkit_n, std::uint64_t{1} << 27,
                                    seed * 4 + 5)),
        keys_sorted(keys),
        reals(lcws::pbbs::random_double_seq(z.sample_sort_n, seed * 4 + 6)),
        reals_sorted(reals) {
    std::sort(keys_sorted.begin(), keys_sorted.end());
    std::sort(reals_sorted.begin(), reals_sorted.end());
  }
};

template <typename Pool>
void toolkit_probes(Pool& pool, const sizes& z, const toolkit_inputs& in,
                    spans& sp, tally& t, metrics& m, const char* who) {
  const char* name = who;
  const std::size_t n = z.toolkit_n;
  std::vector<double> pfor, scan, ssort, isort;
  std::vector<std::uint64_t> a(n), out(n);
  bool ok = true;
  for (int r = 0; r < z.probe_reps; ++r) {
    {
      scoped_span s(sp, "toolkit.parallel_for", name);
      const std::int64_t t0 = now_ns();
      pool.run([&] {
        lcws::par::parallel_for(pool, 0, n,
                                [&](std::size_t i) { a[i] = i * 3 + 1; });
      });
      pfor.push_back(static_cast<double>(now_ns() - t0) / n);
    }
    for (std::size_t i = 0; i < n; ++i) ok = ok && a[i] == i * 3 + 1;
    std::uint64_t total = 0;
    {
      scoped_span s(sp, "toolkit.scan", name);
      const std::int64_t t0 = now_ns();
      pool.run([&] {
        total = lcws::par::scan_add(pool, in.keys.begin(), out.begin(), n,
                                    std::uint64_t{0});
      });
      scan.push_back(static_cast<double>(now_ns() - t0) / n);
    }
    std::uint64_t run_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ok = ok && out[i] == run_sum;
      run_sum += in.keys[i];
    }
    ok = ok && total == run_sum;
    auto reals = in.reals;
    {
      scoped_span s(sp, "toolkit.sample_sort", name);
      const std::int64_t t0 = now_ns();
      pool.run([&] { lcws::par::sample_sort(pool, reals); });
      ssort.push_back(static_cast<double>(now_ns() - t0) / reals.size());
    }
    ok = ok && reals == in.reals_sorted;
    auto keys = in.keys;
    {
      scoped_span s(sp, "toolkit.integer_sort", name);
      const std::int64_t t0 = now_ns();
      pool.run([&] { lcws::par::integer_sort(pool, keys, 27); });
      isort.push_back(static_cast<double>(now_ns() - t0) / n);
    }
    ok = ok && keys == in.keys_sorted;
  }
  const std::string w = who;
  t.record(ok, w + ": toolkit output wrong");
  m.put(w + ".parallel_for_ns", median(pfor), "ns");
  m.put(w + ".scan_ns", median(scan), "ns");
  m.put(w + ".sample_sort_ns", median(ssort), "ns");
  m.put(w + ".integer_sort_ns", median(isort), "ns");
}

// Each kernel alone, checked, under `pool`. The medians of all its
// kernel spans tagged `who` (the workload's own reps included) become
// <who>.<kernel>_ms.
template <typename Pool>
void kernel_probes(Pool& pool, pbbs_mix& mix, const sizes& z, spans& sp,
                   tally& t, metrics& m, const char* who) {
  const std::string w = who;
  for (int r = 0; r < z.kernel_reps; ++r) {
    rep_result unused;
    t.record(mix.isort.run(pool, who, sp, unused), w + ": isort wrong");
    t.record(mix.csort.run(pool, who, sp, unused), w + ": csort wrong");
    t.record(mix.bfs.run(pool, who, sp, unused), w + ": bfs wrong");
    t.record(mix.sa.run(pool, who, sp, unused), w + ": sa wrong");
  }
  for (const char* k : {"isort", "csort", "bfs", "sa"}) {
    m.put(w + "." + k + "_ms",
          median(sp.durations_ms(std::string("kernel.") + k, w)), "ms");
  }
}

// Every layer probe, on every traced run, so each traced run reports the
// whole per-layer table.
void layer_probes(const sizes& z, std::uint64_t seed, spans& sp, tally& t,
                  metrics& m) {
  deque_probes(z, sp, t, m);
  const toolkit_inputs tk(z, seed);
  pbbs_mix mix(z);
  mix.setup(seed, sp);
  m.put("pbbs.isort.make_s", mix.isort.make_s, "s");
  m.put("pbbs.csort.make_s", mix.csort.make_s, "s");
  m.put("pbbs.bfs.make_s", mix.bfs.make_s, "s");
  m.put("pbbs.sa.make_s", mix.sa.make_s, "s");
  for (int s = 0; s < kNumSched; ++s) {
    with_pool(s, kWorkers, [&](auto& pool) {
      sched_probes(pool, z, sp, t, m, s);
      toolkit_probes(pool, z, tk, sp, t, m, kSchedNames[s]);
      kernel_probes(pool, mix, z, sp, t, m, kSchedNames[s]);
    });
  }
  // The first kernel runs above made the one Bench::check call per kernel.
  m.put("pbbs.check_ms",
        mix.isort.check_ms + mix.csort.check_ms + mix.bfs.check_ms +
            mix.sa.check_ms,
        "ms");
  // Single-thread baseline: ws at P = 1, spans tagged "serial".
  ws_pool one(1);
  toolkit_probes(one, z, tk, sp, t, m, "serial");
  kernel_probes(one, mix, z, sp, t, m, "serial");
}

// ---- main ------------------------------------------------------------------

// Knobs that change what the runtime does; the benchmark measures the
// defaults and refuses to run with any of them set.
bool perturbing(const std::string& name) {
  static const char* const exact[] = {
      "LCWS_TRACE",       "LCWS_WORKER_LOST_MS", "LCWS_RUN_TIMEOUT_MS",
      "LCWS_WATCHDOG_MS", "LCWS_NO_PARKING",     "LCWS_LOCALITY_OFF"};
  for (const char* e : exact) {
    if (name == e) return true;
  }
  for (const char* prefix : {"LCWS_DEQUE_", "LCWS_FI", "LCWS_BENCH_"}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::vector<std::pair<std::string, std::string>> lcws_env() {
  std::vector<std::pair<std::string, std::string>> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("LCWS_", 0) != 0) continue;
    const auto eq = kv.find('=');
    out.emplace_back(kv.substr(0, eq),
                     eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  return out;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '\n') out += "\\n";
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string provenance(const std::string& workload, std::uint64_t seed,
                       int trace, bool tiny) {
  std::string env = "{";
  for (const auto& [k, v] : lcws_env()) {
    env += (env.size() > 1 ? ", " : "") + quoted(k) + ": " + quoted(v);
  }
  env += "}";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
                "\"tiny\": %s, \"P\": %zu, "
                "\"schedulers\": [\"ws\", \"uslcws\", \"signal\"], "
                "\"nproc\": %ld, \"build_type\": %s, \"hw_status\": %s, "
                "\"lcws_env\": ",
                quoted(workload).c_str(),
                static_cast<unsigned long long>(seed), trace,
                tiny ? "true" : "false", kWorkers,
                sysconf(_SC_NPROCESSORS_ONLN),
                quoted(PERFBENCH_BUILD_TYPE).c_str(),
                quoted(g_hw_status).c_str());
  return buf + env + "}";
}

// Returns every rep's wall and CPU time, in rep order, as JSON.
template <typename W>
std::string end_to_end(W& w, const sizes& z, int block, int setup_every,
                       double seconds, std::uint64_t seed, rep_cap& cap,
                       tally& t, metrics& m, std::string& report) {
  spans off(false);
  all_stats st;
  setup_stats setups;
  measure(w, block, seconds, seed, off, cap, t, st,
          [&] { return timed_setup<W>(z, seed); }, &setups, setup_every);
  std::string reps = "{";
  char line[160];
  for (int s = 0; s < kNumSched; ++s) {
    for (const auto* v : {&st[s].all_wall_ms, &st[s].all_cpu_ms}) {
      reps += std::string(reps.size() > 1 ? ", " : "") + "\"" +
              kSchedNames[s] +
              (v == &st[s].all_wall_ms ? ".wall_ms" : ".cpu_ms") + "\": [";
      for (std::size_t i = 0; i < v->size(); ++i) {
        std::snprintf(line, sizeof line, "%s%.6f", i == 0 ? "" : ",",
                      (*v)[i]);
        reps += line;
      }
      reps += "]";
    }
    m.put(key(s, "run_ms"), median(st[s].wall_ms), "ms");
    m.put(key(s, "run_ms_p90"), p90(st[s].wall_ms), "ms");
    m.put(key(s, "cpu_ms"), median(st[s].cpu_ms), "ms");
    std::snprintf(line, sizeof line,
                  "%-7s reps=%zu of %zu (%llu of %llu blocks stolen from) "
                  "run_ms=%.3f p90=%.3f cpu_ms=%.3f\n",
                  kSchedNames[s], st[s].wall_ms.size(),
                  st[s].all_wall_ms.size(),
                  static_cast<unsigned long long>(st[s].stolen_blocks),
                  static_cast<unsigned long long>(st[s].blocks),
                  median(st[s].wall_ms), p90(st[s].wall_ms),
                  median(st[s].cpu_ms));
    report += line;
  }
  m.put("setup_s", median(setups.clean.empty() ? setups.all : setups.clean),
        "s");
  std::snprintf(line, sizeof line,
                "setup: %zu set-ups, %zu in cycles the host left alone\n",
                setups.all.size(), setups.clean.size());
  report += line;
  return reps + "}";
}

// The untraced and traced passes of the workload (a quarter of the run
// each; their ratio is the tracing overhead), then every layer probe.
template <typename W>
void per_layer(W& w, const sizes& z, int block, double seconds,
               std::uint64_t seed, spans& sp, rep_cap& cap, tally& t,
               metrics& m, std::string& report) {
  spans off(false);
  all_stats plain, traced;
  measure(w, block, seconds / 4, seed, off, cap, t, plain);
  measure(w, block, seconds / 4, seed, sp, cap, t, traced);
  double plain_ms = 0, traced_ms = 0;
  for (int s = 0; s < kNumSched; ++s) {
    plain_ms += median(plain[s].wall_ms);
    traced_ms += median(traced[s].wall_ms);
  }
  put_counters(m, traced);
  layer_probes(z, seed, sp, t, m);
  const double overhead =
      plain_ms == 0 ? 0 : 100.0 * (traced_ms / plain_ms - 1.0);
  m.put("trace_overhead_pct", overhead, "%");
  char line[120];
  std::snprintf(line, sizeof line,
                "tracing overhead: %.2f%% (traced rep medians %.3f ms vs "
                "untraced %.3f ms, summed over schedulers)\n",
                overhead, traced_ms, plain_ms);
  report += line;
}

// P = 1 fib(27): the sync-op counts of each scheduler, which must repeat
// exactly from run to run.
int print_counts() {
  std::string out = "{";
  for (int s = 0; s < kNumSched; ++s) {
    with_pool(s, 1, [&](auto& pool) {
      pool.reset_counters();
      const std::uint64_t v = pool.run([&] { return fib(pool, 27); });
      const auto c = pool.profile().totals;
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %llu, \"pushes\": %llu, "
                    "\"fences\": %llu, \"cas\": %llu}",
                    s == 0 ? "" : ", ", kSchedNames[s],
                    static_cast<unsigned long long>(v),
                    static_cast<unsigned long long>(c.pushes.get()),
                    static_cast<unsigned long long>(c.fences.get()),
                    static_cast<unsigned long long>(c.cas.get()));
      out += buf;
    });
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spawn_fine|pbbs_mix|skew_rounds "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--tiny]\n"
               "       perfbench --counts\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false, counts = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      tiny = true;
    } else if (a == "--counts") {
      counts = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--out" && has_value) {
      out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  for (const auto& kv : lcws_env()) {
    if (perturbing(kv.first)) {
      std::fprintf(stderr,
                   "perfbench: %s is set; the benchmark measures the "
                   "runtime's defaults, unset it\n",
                   kv.first.c_str());
      return 2;
    }
  }
  if (counts) return print_counts();
  if (!have_seed || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage();
  }

  const sizes z = tiny ? sizes::tiny() : sizes{};
  spans sp(trace == 1);
  rep_cap cap;
  tally t;
  metrics m;
  std::string report, reps = "{}";
  const auto go = [&](auto&& w, int block, int setup_every) {
    spans off(false);
    w.setup(seed, off);
    if (trace == 0) {
      reps = end_to_end(w, z, block, setup_every, seconds, seed, cap, t, m,
                        report);
    } else {
      per_layer(w, z, block, seconds, seed, sp, cap, t, m, report);
    }
  };
  // Blocks of about 0.3 s per scheduler; pbbs_mix times its 0.2 s set-up
  // every third cycle only.
  if (workload == "spawn_fine") {
    go(spawn_fine(z), 10, 1);
  } else if (workload == "skew_rounds") {
    go(skew_rounds(z), 5, 1);
  } else if (workload == "pbbs_mix") {
    go(pbbs_mix(z), 6, 3);
  } else {
    return usage();
  }

  const std::string prov = provenance(workload, seed, trace, tiny);
  std::printf("provenance %s\n%s", prov.c_str(), report.c_str());
  if (trace == 1) std::printf("%s", sp.self_time_report().c_str());
  for (const auto& e : t.errors) std::printf("failure: %s\n", e.c_str());
  char head[160];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                t.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
  const std::string result = head + m.json() + "}";
  if (!out_dir.empty()) {
    const std::string path = out_dir + "/" + workload + "-seed" +
                             std::to_string(seed) + "-trace" +
                             std::to_string(trace) + ".json";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"provenance\": %s,\n\"report\": %s,\n\"result\": %s,\n"
                   "\"reps\": %s,\n\"spans\": %s}\n",
                   prov.c_str(), quoted(report).c_str(), result.c_str(),
                   reps.c_str(), sp.json().c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
