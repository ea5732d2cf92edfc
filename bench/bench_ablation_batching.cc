// Ablation: batched vs. one-at-a-time index uploads.
//
// The paper batches documents and uses DynamoDB's batchPut "to minimize
// the number of calls needed to load the index" (Section 8.2).  This
// ablation quantifies that design choice: the same extracted items are
// written either through full 25-item batch requests or as one item per
// API request, and we compare virtual upload time and request counts.
//
// Expected shape: batching cuts API requests ~25x and upload latency by
// roughly the per-request round-trip share; billed capacity units are
// identical (they depend on item sizes only).

#include <benchmark/benchmark.h>

#include "bench/harness.h"

namespace webdex::bench {
namespace {

class Agent : public cloud::SimAgent {};

struct Run {
  cloud::Micros upload_micros = 0;
  uint64_t api_requests = 0;
  uint64_t write_units = 0;
};

Run& Batched() {
  static Run run;
  return run;
}
Run& Single() {
  static Run run;
  return run;
}

void BM_Upload(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  xmark::GeneratorConfig corpus = CorpusConfig();
  corpus.num_documents = std::max(20, corpus.num_documents / 4);
  for (auto _ : state) {
    cloud::CloudEnv env;
    auto strategy =
        index::IndexingStrategy::Create(index::StrategyKind::kLUP);
    Agent agent;
    for (const auto& table : strategy->TableNames()) {
      if (!env.dynamodb().CreateTable(agent, table).ok()) {
        state.SkipWithError("table setup failed");
        return;
      }
    }
    xmark::XmarkGenerator generator(corpus);
    const cloud::Usage before = env.meter().Snapshot();
    for (int i = 0; i < corpus.num_documents; ++i) {
      auto generated = generator.Generate(i);
      auto doc = xml::ParseDocument(generated.uri, generated.text);
      if (!doc.ok()) continue;
      index::ExtractStats stats;
      auto items = strategy->ExtractItems(doc.value(), {}, env.dynamodb(),
                                          env.rng(), &stats);
      if (!items.ok()) continue;
      for (const auto& batch : items.value()) {
        if (batched) {
          (void)env.dynamodb().BatchPut(agent, batch.table, batch.items);
        } else {
          for (const auto& item : batch.items) {
            (void)env.dynamodb().BatchPut(agent, batch.table, {&item, 1});
          }
        }
      }
    }
    const cloud::Usage delta = env.meter().Snapshot() - before;
    Run& run = batched ? Batched() : Single();
    run.upload_micros = agent.now();
    run.api_requests = delta.ddb_put_requests;
    run.write_units = delta.ddb_write_units;
    state.counters["upload_s"] = static_cast<double>(agent.now()) / 1e6;
    state.counters["api_requests"] =
        static_cast<double>(delta.ddb_put_requests);
  }
  state.SetLabel(batched ? "batchPut(25)" : "single put");
}

BENCHMARK(BM_Upload)
    ->Arg(1)
    ->Arg(0)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void PrintTable() {
  PrintHeader("Ablation: batched vs single-item index uploads (LUP)");
  std::printf("%-16s %14s %14s %14s\n", "Mode", "Upload (s)",
              "API requests", "Write units");
  std::printf("%-16s %14s %14llu %14llu\n", "batchPut(25)",
              Secs(Batched().upload_micros).c_str(),
              (unsigned long long)Batched().api_requests,
              (unsigned long long)Batched().write_units);
  std::printf("%-16s %14s %14llu %14llu\n", "single put",
              Secs(Single().upload_micros).c_str(),
              (unsigned long long)Single().api_requests,
              (unsigned long long)Single().write_units);
  if (Batched().upload_micros > 0) {
    std::printf("batching speedup: %.1fx, request reduction: %.1fx\n",
                static_cast<double>(Single().upload_micros) /
                    static_cast<double>(Batched().upload_micros),
                static_cast<double>(Single().api_requests) /
                    static_cast<double>(Batched().api_requests));
  }
}

}  // namespace
}  // namespace webdex::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  webdex::bench::PrintTable();
  return 0;
}
