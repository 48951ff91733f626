#include "perf/runner.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "perf/fingerprint.hpp"
#include "perf/json.hpp"
#include "perf/stats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace hupc::perf {

namespace {

Json metric_json(const MetricSeries& m) {
  const Summary s = summarize(m.samples);
  Json j = Json::object();
  j.set("unit", m.unit);
  j.set("direction", to_string(m.direction));
  j.set("kind", to_string(m.kind));
  j.set("median", s.median);
  j.set("mad", s.mad);
  j.set("min", s.min);
  j.set("max", s.max);
  j.set("mean", s.mean);
  j.set("ci95_lo", s.ci95_lo);
  j.set("ci95_hi", s.ci95_hi);
  Json samples = Json::array();
  for (const double x : m.samples) samples.push_back(x);
  j.set("samples", std::move(samples));
  return j;
}

Json result_json(const Result& r) {
  Json j = Json::object();
  j.set("id", r.id);
  j.set("repetitions", r.repetitions);
  j.set("warmup", r.warmup);
  Json config = Json::object();
  for (const auto& [k, v] : r.config) config.set(k, v);
  j.set("config", std::move(config));
  Json metrics = Json::object();
  for (const auto& m : r.metrics) metrics.set(m.name, metric_json(m));
  j.set("metrics", std::move(metrics));
  Json counters = Json::object();
  for (const auto& [k, v] : r.counters) counters.set(k, v);
  j.set("counters", std::move(counters));
  return j;
}

}  // namespace

Runner::Runner(std::string suite, RunnerOptions options)
    : suite_(std::move(suite)), options_(std::move(options)) {}

Runner::Runner(std::string suite, const util::Cli& cli)
    : suite_(std::move(suite)) {
  options_.list_only = cli.get_bool("list", false);
  options_.filter = cli.get("filter", "");
  options_.repetitions =
      cli.get_int_in<int>("repetitions", options_.repetitions);
  options_.warmup = cli.get_int_in<int>("warmup", 0);
  options_.json_path = cli.get("json", "");
  options_.print_table = !cli.get_bool("no-table", false);
  options_.tier = parse_tier(cli.get("tier", "full"));
  cli.reject_unread(suite_.c_str());
  if (options_.repetitions < 1 || options_.warmup < 0) {
    throw std::invalid_argument(
        "--repetitions must be >= 1 and --warmup >= 0");
  }
}

std::ostream& Runner::human_out() const noexcept {
  return options_.json_path == "-" ? std::cerr : std::cout;
}

std::vector<Result> Runner::run(const Registry& registry) const {
  const auto selected = registry.match(options_.filter, options_.tier);
  std::vector<Result> results;
  if (options_.list_only) {
    for (const Benchmark* b : selected) {
      std::printf("%-48s tier=%s reps=%d\n", b->id.c_str(),
                  b->in_smoke ? "smoke+full" : "full", options_.repetitions);
    }
    return results;
  }
  results.reserve(selected.size());
  for (const Benchmark* b : selected) {
    const int reps = options_.repetitions;
    const int warmup = b->warmup >= 0 ? b->warmup : options_.warmup;
    Context ctx(b->id, options_.tier);
    for (int rep = -warmup; rep < reps; ++rep) {
      ctx.repetition_ = rep;
      b->fn(ctx);
    }
    ctx.result_.repetitions = reps;
    ctx.result_.warmup = warmup;
    results.push_back(std::move(ctx.result_));
  }
  return results;
}

void Runner::write_artifact(std::ostream& os,
                            const std::vector<Result>& results) const {
  Json root = Json::object();
  root.set("schema_version", 1);
  root.set("suite", suite_);
  root.set("tier", to_string(options_.tier));
  root.set("fingerprint",
           collect_fingerprint(suite_, to_string(options_.tier)).to_json());
  Json benchmarks = Json::array();
  for (const auto& r : results) benchmarks.push_back(result_json(r));
  root.set("benchmarks", std::move(benchmarks));
  root.write(os, 2);
  os << '\n';
}

int Runner::main(const std::function<int(const std::vector<Result>&)>& report,
                 const Registry& registry) const {
  const std::vector<Result> results = run(registry);
  if (options_.list_only) return 0;

  if (options_.print_table) {
    util::Table table({"Benchmark", "Metric", "Median", "Unit", "MAD",
                       "95% CI", "n"});
    for (const auto& r : results) {
      for (const auto& m : r.metrics) {
        const Summary s = summarize(m.samples);
        std::string ci = "[";
        ci += util::Table::num(s.ci95_lo, 4);
        ci += ", ";
        ci += util::Table::num(s.ci95_hi, 4);
        ci += "]";
        table.add_row({r.id, m.name, util::Table::num(s.median, 4), m.unit,
                       util::Table::num(s.mad, 4), ci,
                       std::to_string(s.count)});
      }
    }
    human_out() << '\n';
    table.print(human_out());
  }

  if (!options_.json_path.empty()) {
    if (options_.json_path == "-") {
      write_artifact(std::cout, results);
    } else {
      std::ofstream os(options_.json_path);
      write_artifact(os, results);
      if (!os) {
        std::fprintf(stderr, "%s: error: cannot write artifact to %s\n",
                     suite_.c_str(), options_.json_path.c_str());
        return 1;
      }
      std::printf("perf: %zu benchmark(s) -> %s\n", results.size(),
                  options_.json_path.c_str());
    }
  }

  return report ? report(results) : 0;
}

}  // namespace hupc::perf
