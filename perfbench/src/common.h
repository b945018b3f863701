#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the workloads: run options, latency samples with
// failure accounting, the JSON result line, seeded input choices, and the
// bit-for-bit view comparison every correctness gate uses.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "query/view.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // directory for snapshots and the span file
};

// The identity of a timed call: two samples with the same key are the
// same call on the same system state, repeated in another pass of the
// run. Keys only need to be unique within one run.
std::uint64_t OpKey(std::initializer_list<std::uint64_t> parts);
std::uint64_t OpKey(const std::vector<std::string>& keywords);

// Latency samples of one operation kind, each with its call's key, plus
// the kind's failure accounting. A failed operation contributes no
// sample: it counts as missing every latency metric.
struct OpSamples {
  std::vector<double> ms;
  std::vector<std::uint64_t> keys;  // keys[i] identifies the call of ms[i]
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Ok(double v, std::uint64_t key) {
    ++attempted;
    ms.push_back(v);
    keys.push_back(key);
  }
  void Fail() {
    ++attempted;
    ++failed;
  }
  void Merge(const OpSamples& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    keys.insert(keys.end(), other.keys.begin(), other.keys.end());
    attempted += other.attempted;
    failed += other.failed;
  }
  // Each distinct call's fastest repeat, by key.
  std::map<std::uint64_t, double> FastestByKey() const;
  // The median, over the distinct calls, of each call's fastest repeat:
  // the statistic of the end-to-end latencies (see ../README.md).
  double MedianOfFastest() const;
};

// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Count(const OpSamples& op) {
    attempted += op.attempted;
    failed += op.failed;
  }
  // Records a correctness failure and says why on stderr.
  void Diverged(const std::string& why);
  // The result object, as one line.
  std::string Json() const;
};

// Runs `pass` (passes 0, 1, ...) at least once, then again while one more
// pass as long as the last one still fits in `seconds`. Workloads make
// every pass the same work, so a faster program runs more passes of it,
// never different work. Returns the number of passes run.
std::uint64_t RunPasses(double seconds,
                        const std::function<void(std::uint64_t)>& pass);

// Every operation kind a workload times. All workloads run every kind, so
// every run reports every end-to-end metric.
struct Samples {
  OpSamples setup, create, query, fb_ack, fb_fresh, reg_ack, reg_fresh, save,
      restore;
  // Query windows: the wall time of each keyed span in which the
  // measured clients issued queries (an epoch of the concurrent readers,
  // or one query of a single client), and how many queries each answered.
  OpSamples query_window;
  std::map<std::uint64_t, std::uint64_t> window_queries;

  void AddQueryWindow(double ms, std::uint64_t key, std::uint64_t queries) {
    query_window.Ok(ms, key);
    window_queries[key] = queries;
  }

  void Merge(const Samples& other);
  // Adds every operation's attempted/failed counts to `report`.
  void CountInto(Report* report) const;
  // The end-to-end metrics, in the order BENCHMARK.json lists them.
  // setup_s is the median boot; every other latency is
  // OpSamples::MedianOfFastest, and queries_per_s is the queries of one
  // repeat of every window over the windows' fastest repeats. peak_rss_mb
  // is the process peak so far, so call this last.
  void EmitEndToEnd(Report* report) const;
};

// Peak resident set of the process so far, in MiB (getrusage).
double PeakRssMb();
// Heap bytes currently allocated by the process, in MiB (mallinfo2).
double HeapInUseMb();

// Seeded generator for every benchmark-side choice. The library's own
// generators (InterPro-GO, synthetic and streaming sources) take seeds
// derived from the same run seed.
using Rng = std::mt19937_64;
std::uint64_t Uniform(Rng* rng, std::uint64_t bound);
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

// YCSB Zipfian over [0, n): rank 0 is the most popular item.
class Zipfian {
 public:
  Zipfian(std::size_t n, double theta);
  std::size_t Next(Rng* rng) const;

 private:
  std::size_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

// Every unordered pair of distinct keywords of the dataset's query
// vocabulary (the keywords of its bundled two-keyword queries).
std::vector<std::vector<std::string>> VocabularyPairs(
    const q::data::InterProGoDataset& dataset);

// A uniformly random permutation of [0, n).
std::vector<std::size_t> Permutation(std::size_t n, Rng* rng);

// `count` distinct pairs drawn uniformly from `pairs`, in draw order.
std::vector<std::vector<std::string>> DrawPairs(
    const std::vector<std::vector<std::string>>& pairs, std::size_t count,
    Rng* rng);

// Bit-for-bit comparison of two view states: tree costs (and edge ids
// when `compare_edges`), compiled-query order, result columns and rows.
// Writes the first difference to `why`.
bool SameViewState(const q::query::ViewSnapshot& a,
                   const q::query::ViewSnapshot& b, bool compare_edges,
                   std::string* why);

// The serving dataset of the serve and ingest workloads (the full-size
// configuration of the concurrent serving harness).
q::data::InterProGoConfig ServingDatasetConfig(std::uint64_t seed);

// A fresh source copying the schema of a random table of `dataset`, with
// a random sample of its rows: named "mir<serial>", so it never collides,
// and its attributes and values overlap the original's, so the matchers
// align it into views over that table.
std::shared_ptr<q::relational::DataSource> MakeMirrorSource(
    const q::data::InterProGoDataset& dataset, std::size_t serial, Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
