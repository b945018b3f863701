#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

std::uint64_t OpKey(std::initializer_list<std::uint64_t> parts) {
  std::uint64_t key = 0x51ED270B27B7F2A1ULL;
  for (std::uint64_t part : parts) key = DeriveSeed(key, part);
  return key;
}

std::uint64_t OpKey(const std::vector<std::string>& keywords) {
  std::uint64_t key = 0x2545F4914F6CDD1DULL;
  for (const std::string& word : keywords) {
    for (unsigned char c : word) key = (key ^ c) * 0x100000001B3ULL;
    key = DeriveSeed(key, word.size());
  }
  return key;
}

std::map<std::uint64_t, double> OpSamples::FastestByKey() const {
  std::map<std::uint64_t, double> fastest;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    auto [it, fresh] = fastest.emplace(keys[i], ms[i]);
    if (!fresh) it->second = std::min(it->second, ms[i]);
  }
  return fastest;
}

double OpSamples::MedianOfFastest() const {
  std::vector<double> values;
  for (const auto& [key, v] : FastestByKey()) values.push_back(v);
  return Percentile(std::move(values), 0.5);
}

void Report::Diverged(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: DIVERGENCE: %s\n", why.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = metrics[i].second.first;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

void Samples::Merge(const Samples& other) {
  setup.Merge(other.setup);
  create.Merge(other.create);
  query.Merge(other.query);
  fb_ack.Merge(other.fb_ack);
  fb_fresh.Merge(other.fb_fresh);
  reg_ack.Merge(other.reg_ack);
  reg_fresh.Merge(other.reg_fresh);
  save.Merge(other.save);
  restore.Merge(other.restore);
  query_window.Merge(other.query_window);
  window_queries.insert(other.window_queries.begin(),
                        other.window_queries.end());
}

void Samples::CountInto(Report* report) const {
  for (const OpSamples* op : {&setup, &create, &query, &fb_ack, &reg_ack,
                              &save, &restore}) {
    report->Count(*op);
  }
}

void Samples::EmitEndToEnd(Report* report) const {
  report->Add("setup_s", Percentile(setup.ms, 0.5) / 1e3, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  report->Add("create_view_p50_ms", create.MedianOfFastest(), "ms");
  report->Add("query_p50_ms", query.MedianOfFastest(), "ms");
  double window_ms = 0.0, queries = 0.0;
  for (const auto& [key, ms] : query_window.FastestByKey()) {
    window_ms += ms;
    queries += static_cast<double>(window_queries.at(key));
  }
  report->Add("queries_per_s",
              window_ms > 0.0 ? queries / (window_ms / 1e3) : 0.0, "1/s");
  report->Add("feedback_ack_p50_ms", fb_ack.MedianOfFastest(), "ms");
  report->Add("feedback_fresh_p50_ms", fb_fresh.MedianOfFastest(), "ms");
  report->Add("register_ack_p50_ms", reg_ack.MedianOfFastest(), "ms");
  report->Add("register_fresh_p50_ms", reg_fresh.MedianOfFastest(), "ms");
  report->Add("save_p50_ms", save.MedianOfFastest(), "ms");
}

std::uint64_t RunPasses(double seconds,
                        const std::function<void(std::uint64_t)>& pass) {
  const auto begin = Clock::now();
  std::uint64_t index = 0;
  double last_ms = 0.0;
  do {
    const auto start = Clock::now();
    pass(index++);
    last_ms = MsSince(start);
  } while (MsSince(begin) + last_ms <= seconds * 1e3);
  return index;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::uint64_t Uniform(Rng* rng, std::uint64_t bound) {
  return bound == 0 ? 0 : (*rng)() % bound;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): independent streams per input kind.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
                    0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Zipfian::Zipfian(std::size_t n, double theta) : n_(n), theta_(theta) {
  for (std::size_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::size_t Zipfian::Next(Rng* rng) const {
  const double u =
      static_cast<double>((*rng)() >> 11) * (1.0 / 9007199254740992.0);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto v = static_cast<std::size_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

std::vector<std::vector<std::string>> VocabularyPairs(
    const q::data::InterProGoDataset& dataset) {
  std::set<std::string> vocabulary;
  for (const auto& query : dataset.keyword_queries) {
    vocabulary.insert(query.begin(), query.end());
  }
  const std::vector<std::string> words(vocabulary.begin(), vocabulary.end());
  std::vector<std::vector<std::string>> pairs;
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      pairs.push_back({words[i], words[j]});
    }
  }
  return pairs;
}

std::vector<std::size_t> Permutation(std::size_t n, Rng* rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::swap(order[i], order[i + Uniform(rng, n - i)]);
  }
  return order;
}

std::vector<std::vector<std::string>> DrawPairs(
    const std::vector<std::vector<std::string>>& pairs, std::size_t count,
    Rng* rng) {
  const std::vector<std::size_t> order = Permutation(pairs.size(), rng);
  std::vector<std::vector<std::string>> out;
  for (std::size_t i = 0; i < std::min(count, order.size()); ++i) {
    out.push_back(pairs[order[i]]);
  }
  return out;
}

bool SameViewState(const q::query::ViewSnapshot& a,
                   const q::query::ViewSnapshot& b, bool compare_edges,
                   std::string* why) {
  if (a.trees.size() != b.trees.size()) {
    *why = "tree count " + std::to_string(a.trees.size()) + " vs " +
           std::to_string(b.trees.size());
    return false;
  }
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    if (a.trees[i].cost != b.trees[i].cost) {
      *why = "cost of tree " + std::to_string(i);
      return false;
    }
    if (compare_edges && a.trees[i].edges != b.trees[i].edges) {
      *why = "edges of tree " + std::to_string(i);
      return false;
    }
  }
  if (a.results.columns != b.results.columns) {
    *why = "result columns";
    return false;
  }
  if (a.results.rows.size() != b.results.rows.size()) {
    *why = "row count " + std::to_string(a.results.rows.size()) + " vs " +
           std::to_string(b.results.rows.size());
    return false;
  }
  for (std::size_t i = 0; i < a.results.rows.size(); ++i) {
    const auto& x = a.results.rows[i];
    const auto& y = b.results.rows[i];
    if (x.cost != y.cost || x.query_index != y.query_index ||
        x.values != y.values) {
      *why = "result row " + std::to_string(i);
      return false;
    }
  }
  return true;
}

q::data::InterProGoConfig ServingDatasetConfig(std::uint64_t seed) {
  q::data::InterProGoConfig config;
  config.seed = seed;
  config.num_go_terms = 120;
  config.num_entries = 90;
  config.num_pubs = 80;
  config.num_journals = 10;
  config.num_methods = 60;
  config.interpro2go_links = 200;
  config.entry2pub_links = 160;
  config.method2pub_links = 120;
  return config;
}

std::shared_ptr<q::relational::DataSource> MakeMirrorSource(
    const q::data::InterProGoDataset& dataset, std::size_t serial, Rng* rng) {
  std::vector<std::shared_ptr<q::relational::Table>> tables;
  for (const auto& src : dataset.catalog.sources()) {
    for (const auto& table : src->tables()) tables.push_back(table);
  }
  const auto& original = *tables[Uniform(rng, tables.size())];
  const std::string name = "mir" + std::to_string(serial);
  auto table = std::make_shared<q::relational::Table>(
      q::relational::RelationSchema(name, original.schema().relation(),
                                    original.schema().attributes()));
  // Up to 8 rows, sampled without replacement, in the original's order.
  std::vector<std::size_t> picks;
  for (std::size_t r = 0; r < original.num_rows(); ++r) {
    if (picks.size() < 8) {
      picks.push_back(r);
    } else {
      const std::size_t j = Uniform(rng, r + 1);
      if (j < picks.size()) picks[j] = r;
    }
  }
  std::sort(picks.begin(), picks.end());
  for (std::size_t r : picks) {
    if (!table->AppendRow(original.row(r)).ok()) return nullptr;
  }
  auto source = std::make_shared<q::relational::DataSource>(name);
  if (!source->AddTable(std::move(table)).ok()) return nullptr;
  return source;
}

}  // namespace perfbench
