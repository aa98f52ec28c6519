// The repository benchmark: raw adjacency → CBM operand → two-layer GCN
// forwards, measured end to end (--trace 0) or layer by layer (--trace 1).
//
//   cbm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--size full|tiny] [--trace-out <file>] [--corrupt]
//
// Workloads (README.md says why each exists):
//   gcn_clustered     collab stand-in, α = 16: compress once, many forwards
//   gcn_citation      pubmed stand-in, α = 16: same protocol, nothing compresses
//   compress_oneshot  three distinct graphs, each from raw adjacency to one
//                     verified Â·X product (the pass is the unit of work)
//
// Every CBM product and forward is compared against the CSR operand's result
// on the same input with cbm::check's ULP-aware compare. Lines starting with
// '#' and 'metric' describe the run; the last stdout line is one JSON object
// {correct, attempted, failed, metrics}. Exit status: 0 when every checked
// output matched, 1 when any product or forward threw or disagreed, 2 on bad
// arguments. --corrupt perturbs the first checked CBM output (the smoke test
// uses it to prove that a wrong result is counted).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/datasets.hpp"
#include "cbm/cbm_matrix.hpp"
#include "cbm/deltas.hpp"
#include "cbm/distance_graph.hpp"
#include "cbm/spmm_cbm.hpp"
#include "check/oracle.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/vectorops.hpp"
#include "dense/gemm.hpp"
#include "dense/ops.hpp"
#include "gnn/adjacency_op.hpp"
#include "gnn/gcn.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "sparse/scale.hpp"
#include "sparse/spmm.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "tree/arborescence.hpp"
#include "tree/compression_tree.hpp"
#include "tune/tune.hpp"

namespace {

using cbm::index_t;
using real = cbm::real_t;
using Dense = cbm::DenseMatrix<real>;
using perfbench::SpanRecorder;
using perfbench::traced;

constexpr index_t kWidth = 64;  // p: feature, hidden and output width
// Load comes from one process. The traced run uses at most 4 threads and
// half the allowed CPUs: on a shared host, barrier-heavy parallel regions on
// every vCPU stall whenever the hypervisor runs another tenant on one of them
// (4-vCPU VM: 4-thread forward medians spread 17–43% over ten seeds, 2-thread
// ones 6%). The end-to-end run uses one thread, whose figures spread least:
// on compress_oneshot over five seeds, forward_vs_ref spread 7% at one
// thread and 13% at two.
constexpr int kMaxThreads = 4;

// The tolerances the differential tests apply to CBM products.
constexpr double kRtol = 1e-4;
constexpr double kAtol = 1e-5;
constexpr std::int64_t kMaxUlps = 32;

constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 400;
constexpr int kTracedSetupReps = 3;
constexpr std::size_t kMinKernelReps = 5;
constexpr std::size_t kMaxKernelReps = 400;
constexpr std::size_t kMinTracedForwards = 20;
// Past this share of the forward, gnn.overhead_ms earns a warning: the
// timed parts no longer account for the forward.
constexpr double kMaxOverheadShare = 0.05;

// ------------------------------------------------------------ arguments --

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "cbm_perfbench: " << message << "\n"
            << "usage: cbm_perfbench --workload gcn_clustered|gcn_citation|"
               "compress_oneshot --seed <n> --seconds <s> --trace 0|1 "
               "[--size full|tiny] [--trace-out <file>] [--corrupt]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + key);
      return argv[++i];
    };
    try {
      if (key == "--workload") {
        args.workload = value();
      } else if (key == "--seed") {
        args.seed = std::stoull(value());
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value());
      } else if (key == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (key == "--size") {
        const std::string v = value();
        if (v != "full" && v != "tiny") usage_error("--size takes full|tiny");
        args.tiny = v == "tiny";
      } else if (key == "--trace-out") {
        args.trace_out = value();
      } else if (key == "--corrupt") {
        args.corrupt = true;
      } else {
        usage_error("unknown argument " + key);
      }
    } catch (const std::logic_error&) {  // stoull / stod
      usage_error("bad number for " + key);
    }
  }
  if (args.workload.empty() || !have_seed || !have_trace) {
    usage_error("--workload, --seed and --trace are required");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    usage_error("--seconds must be in (0, 120]");
  }
  return args;
}

// ----------------------------------------------------------- statistics --

/// Quantile by linear interpolation between order statistics; NaN when
/// there are no samples (every attempt threw).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // splitmix64 finaliser over the combined value.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (a + 1) + (b << 32);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- inputs --

struct GraphCase {
  std::string name;
  int alpha = 0;
  cbm::Graph graph;
};

/// Erdős–Rényi graph plus node 0 linked to every other node: the hub column
/// overlaps every pair of rows, so candidate enumeration sees all n² pairs.
cbm::Graph er_with_hub(index_t n, index_t avg_degree, std::uint64_t seed) {
  const cbm::Graph er = cbm::erdos_renyi(
      n, static_cast<cbm::offset_t>(n) * avg_degree / 2, seed);
  std::vector<std::pair<index_t, index_t>> edges;
  edges.reserve(static_cast<std::size_t>(er.adjacency().nnz() / 2 + n));
  for (index_t u = 0; u < n; ++u) {
    for (const index_t v : er.adjacency().row_indices(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  for (index_t v = 1; v < n; ++v) edges.emplace_back(0, v);
  return cbm::Graph::from_edges(n, edges);
}

struct Workload {
  std::string name;
  std::vector<GraphCase> cases;
  /// compress_oneshot: setup takes each graph through one verified Â·X.
  bool setup_includes_product = false;
  /// Share of --seconds spent repeating setup; the rest runs forwards.
  double setup_share = 0.25;
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  const double s = tiny ? 0.05 : 1.0;
  Workload w;
  w.name = name;
  if (name == "gcn_clustered") {
    w.cases.push_back({"collab", 16, cbm::make_standin("collab", 0.2 * s)});
  } else if (name == "gcn_citation") {
    w.cases.push_back({"pubmed", 16, cbm::make_standin("pubmed", 1.0 * s)});
  } else if (name == "compress_oneshot") {
    w.cases.push_back(
        {"ogbn-proteins", 16, cbm::make_standin("ogbn-proteins", 0.1 * s)});
    w.cases.push_back(
        {"copapersdblp", 0, cbm::make_standin("copapersdblp", 0.1 * s)});
    w.cases.push_back({"er-hub", 0,
                       er_with_hub(static_cast<index_t>(20000 * s), 8,
                                   mix_seed(seed, 0, 0x4b0b))});
    w.setup_includes_product = true;
    // The pass is what this workload measures; forwards get the half left.
    w.setup_share = 0.5;
  } else {
    usage_error("unknown workload " + name);
  }
  return w;
}

std::unique_ptr<cbm::CbmAdjacency<real>> make_cbm_operand(
    const GraphCase& gc) {
  const auto norm = cbm::gcn_normalization<real>(gc.graph);
  // The one-argument constructor: whatever plan the library defaults to.
  return std::make_unique<cbm::CbmAdjacency<real>>(
      cbm::CbmMatrix<real>::compress_scaled(
          norm.a_plus_i, std::span<const real>(norm.dinv_sqrt),
          cbm::CbmKind::kSymScaled, {.alpha = gc.alpha}));
}

std::unique_ptr<cbm::CsrAdjacency<real>> make_csr_operand(
    const cbm::GcnNormalization<real>& norm) {
  const std::span<const real> d(norm.dinv_sqrt);
  return std::make_unique<cbm::CsrAdjacency<real>>(
      cbm::scale_both<real>(norm.a_plus_i, d, d));
}

/// n × p features, uniform in [−1, 1). Centred, so that each column of
/// σ(Â·X·W⁰) is about half zeros whatever the seed. With features in [0, 1)
/// (all positive, as Â is), a column's sign follows the sign of its weight
/// column's sum, so the zeros that the second GEMM skips, and with them its
/// time, swing by about ±12% from seed to seed.
Dense centred_features(index_t n, std::uint64_t seed) {
  Dense x = cbm::check::random_dense<real>(n, kWidth, seed);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = real{2} * x.data()[i] - real{1};
  }
  return x;
}

/// One graph's inputs, operands, outputs and CSR references.
struct CaseState {
  const GraphCase* gc;
  index_t n;
  Dense x;
  cbm::Gcn2<real> model;
  cbm::Gcn2<real>::Workspace ws;
  Dense out;
  Dense product;      ///< Â·X by the CBM operand
  Dense csr_product;  ///< Â·X by the CSR operand (reference)
  Dense csr_forward;  ///< forward with the CSR operand (reference)
  std::unique_ptr<cbm::CsrAdjacency<real>> csr;
  std::unique_ptr<cbm::CbmAdjacency<real>> cbm;

  CaseState(const GraphCase& g, std::uint64_t seed, std::uint64_t index)
      : gc(&g),
        n(g.graph.num_nodes()),
        x(centred_features(n, mix_seed(seed, index, 1))),
        model(kWidth, kWidth, kWidth, mix_seed(seed, index, 2)),
        ws(n, kWidth, kWidth),
        out(n, kWidth),
        product(n, kWidth),
        csr_product(n, kWidth),
        csr_forward(n, kWidth),
        csr(make_csr_operand(cbm::gcn_normalization<real>(g.graph))) {
    csr->multiply(x, csr_product);
    model.forward(*csr, x, ws, csr_forward);
  }
};

// ------------------------------------------------------------ checking --

/// Counts checked outputs and failures (exceptions or mismatches).
class Checker {
 public:
  explicit Checker(bool corrupt_first) : corrupt_next_(corrupt_first) {}

  /// Compares a CBM output against the CSR reference for the same input.
  void compare(const std::string& what, Dense& actual, const Dense& expected) {
    if (corrupt_next_) {
      corrupt_next_ = false;
      actual(0, 0) += real{1};
    }
    const auto r = cbm::check::compare_allclose(actual, expected, kRtol,
                                                kAtol, kMaxUlps);
    check(r.ok, what + ": " + r.to_string());
  }

  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }

  /// Runs fn(); an exception counts as one failed attempt.
  template <typename F>
  bool guard(const std::string& what, F&& fn) {
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      threw(what, e);
      return false;
    }
  }

  void threw(const std::string& what, const std::exception& e) {
    ++attempted_;
    fail(what + " threw: " + e.what());
  }

  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }

 private:
  void fail(const std::string& what) {
    if (failed_++ < 5) std::cout << "# FAILED " << what << "\n";
  }

  bool corrupt_next_;
  long attempted_ = 0;
  long failed_ = 0;
};

// -------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  /// A metric of the JSON result (one that BENCHMARK.json lists).
  void add(std::string name, double value, std::string unit,
           const std::string& note = "") {
    print(name, value, unit, note);
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// A metric printed for the reader only: BENCHMARK.json does not gate it.
  static void print(const std::string& name, double value,
                    const std::string& unit, const std::string& note = "") {
    std::printf("metric %s = %.6g %s%s%s\n", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  ", note.c_str());
  }

  void print_json(const Checker& chk) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                chk.failed() == 0 ? "true" : "false", chk.attempted(),
                chk.failed());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[32] = "null";  // no samples: the run has failed already
      if (std::isfinite(m.value)) {
        std::snprintf(value, sizeof(value), "%.17g", m.value);
      }
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CPUs this process may run on.
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(CPU_COUNT(&set), 1);
}

void print_header(const Args& args, const Workload& w, int threads) {
  std::cout << "# perfbench workload=" << w.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " size=" << (args.tiny ? "tiny" : "full") << "\n"
            << "# host: nproc=" << nproc()
            << " hardware_threads=" << std::thread::hardware_concurrency()
            << " threads_used=" << threads << " cpu=\""
            << cbm::tune::cpu_model_key() << "\" simd="
            << cbm::simd_level_name(cbm::simd_level()) << " compiler=\""
            << __VERSION__ << "\" build=" << CBM_PERFBENCH_BUILD_TYPE << "\n";
  for (const GraphCase& gc : w.cases) {
    std::cout << "# graph " << gc.name << ": nodes=" << gc.graph.num_nodes()
              << " edges=" << gc.graph.num_edges() << " alpha=" << gc.alpha
              << " width=" << kWidth << "\n";
  }
}

// ------------------------------------------------------- end-to-end run --

/// The yardstick forward (reference.hpp) on one graph's inputs.
perfbench::ReferenceForward make_reference(const CaseState& c) {
  const cbm::CsrMatrix<real>& a = c.csr->matrix();
  return {{a.rows(), a.indptr(), a.indices(), a.values()},
          kWidth,
          c.x.data(),
          c.model.layer0().weight().data(),
          c.model.layer1().weight().data()};
}

void run_end_to_end(const Workload& w, const Args& args,
                    std::vector<CaseState>& cases, Checker& chk,
                    Report& report) {
  // Setup: raw adjacency → ready CBM operand (normalise, compress, wrap);
  // compress_oneshot also runs each graph's first product.
  std::vector<double> setup_s;
  const auto setup = [&] {
    for (CaseState& c : cases) c.cbm.reset();
    cbm::Timer timer;
    for (CaseState& c : cases) {
      c.cbm = make_cbm_operand(*c.gc);
      if (w.setup_includes_product) c.cbm->multiply(c.x, c.product);
    }
    setup_s.push_back(timer.seconds());
    if (w.setup_includes_product) {
      for (CaseState& c : cases) {
        chk.compare(c.gc->name + " A.X", c.product, c.csr_product);
      }
    }
  };

  std::vector<perfbench::ReferenceForward> references;
  // One forward on one graph, in ms; the library's are checked.
  enum Kind { kCbm, kCsr, kReference };
  const auto forward = [&](std::size_t i, Kind kind) {
    CaseState& c = cases[i];
    cbm::Timer timer;
    if (kind == kCbm) {
      c.model.forward(*c.cbm, c.x, c.ws, c.out);
    } else if (kind == kCsr) {
      c.model.forward(*c.csr, c.x, c.ws, c.out);
    } else {
      references[i].run();
    }
    const double ms = timer.millis();
    if (kind == kCbm) {
      chk.compare(c.gc->name + " forward", c.out, c.csr_forward);
    }
    return ms;
  };

  // A user's run: set up once, then forwards (two each, to warm caches).
  setup();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (int rep = 0; rep < 2; ++rep) {
      for (const Kind kind : {kCbm, kCsr}) forward(i, kind);
    }
  }
  // Read before the yardstick's copies and the setup repeats: the forwards
  // allocate nothing, and repeated compresses only add allocator
  // fragmentation to the high-water mark.
  const double rss_mib = peak_rss_mib();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    references.push_back(make_reference(cases[i]));
    for (int rep = 0; rep < 2; ++rep) forward(i, kReference);
    // The yardstick must compute the same forward.
    CaseState& c = cases[i];
    const std::span<const real> ref = references[i].output();
    std::copy(ref.begin(), ref.end(), c.out.data());
    chk.compare(c.gc->name + " reference forward", c.out, c.csr_forward);
  }

  // Setup repeats for its share of the run (at least kMinSetupReps times),
  // then forward rounds for the rest.
  cbm::Timer clock;
  while (setup_s.size() < kMinSetupReps ||
         (clock.seconds() < w.setup_share * args.seconds &&
          setup_s.size() < kMaxSetupReps)) {
    setup();
  }

  // A round takes each graph in turn through CBM and CSR forwards, each
  // between two yardstick forwards; the forward's time over their mean is
  // one sample of *_vs_ref. The host's speed at that moment cancels out of
  // the quotient: over five seeds on a shared 4-vCPU VM, the forwards' own
  // medians spread 4–8%, their quotients 2–3%.
  struct Series {
    std::vector<double> cbm_ms, csr_ms, ref_ms, cbm_vs_ref, csr_vs_ref;
  };
  std::vector<Series> series(cases.size());
  const auto round = [&] {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      Series& s = series[i];
      double before = forward(i, kReference);
      for (const Kind kind : {kCbm, kCsr, kCbm, kCsr}) {
        double ms = 0.0;
        if (!chk.guard("forward", [&] { ms = forward(i, kind); })) continue;
        const double after = forward(i, kReference);
        (kind == kCbm ? s.cbm_ms : s.csr_ms).push_back(ms);
        (kind == kCbm ? s.cbm_vs_ref : s.csr_vs_ref)
            .push_back(2.0 * ms / (before + after));
        s.ref_ms.push_back(after);
        before = after;
      }
    }
  };
  chk.guard("forward round", round);  // warm-up after the setups
  series.assign(cases.size(), {});
  clock.reset();
  const double forward_s = (1.0 - w.setup_share) * args.seconds;
  while (clock.seconds() < forward_s) chk.guard("forward round", round);

  // Per graph, the median over its samples; over a workload's graphs, the
  // geometric mean of quotients and the sum of times.
  const auto geomean = [&](std::vector<double> Series::*v) {
    double log_sum = 0.0;
    for (const Series& s : series) log_sum += std::log(median(s.*v));
    return std::exp(log_sum / static_cast<double>(series.size()));
  };
  const auto sum_ms = [&](std::vector<double> Series::*v, double q) {
    double ms = 0.0;
    for (const Series& s : series) ms += quantile(s.*v, q);
    return ms;
  };
  const auto counts = [&](std::vector<double> Series::*v) {
    std::string text;
    for (const Series& s : series) {
      text += (text.empty() ? "" : "/") + std::to_string((s.*v).size());
    }
    return "(" + text + " samples)";
  };
  double log_ratio = 0.0;
  for (const CaseState& c : cases) {
    log_ratio += std::log(static_cast<double>(c.csr->bytes()) /
                          static_cast<double>(c.cbm->bytes()));
  }
  const double cbm_vs_ref = geomean(&Series::cbm_vs_ref);
  const double csr_vs_ref = geomean(&Series::csr_vs_ref);
  report.add("setup_s", median(setup_s), "s",
             "(median of " + std::to_string(setup_s.size()) + ", quartiles " +
                 std::to_string(quantile(setup_s, 0.25)) + " to " +
                 std::to_string(quantile(setup_s, 0.75)) + ")");
  report.add("forward_vs_ref", cbm_vs_ref, "ratio",
             counts(&Series::cbm_vs_ref));
  report.add("csr_forward_vs_ref", csr_vs_ref, "ratio",
             counts(&Series::csr_vs_ref));
  // CSR forward time over CBM forward time, both measured by the yardstick.
  report.add("cbm_vs_csr", csr_vs_ref / cbm_vs_ref, "ratio",
             "(raw medians give " +
                 std::to_string(sum_ms(&Series::csr_ms, 0.5) /
                                sum_ms(&Series::cbm_ms, 0.5)) +
                 ")");
  report.add("compression_ratio",
             std::exp(log_ratio / static_cast<double>(cases.size())), "ratio");
  report.add("peak_rss_mb", rss_mib, "MiB",
             "(after one setup and the warm-up forwards)");
  // Not gated, these: they are times in ms, and they move with the host.
  // The run is at one thread, so forward_ms_p50 is also the one-thread
  // forward.
  Report::print("forward_ms_p50", sum_ms(&Series::cbm_ms, 0.5), "ms",
                counts(&Series::cbm_ms));
  Report::print("forward_ms_p90", sum_ms(&Series::cbm_ms, 0.9), "ms",
                counts(&Series::cbm_ms));
  Report::print("csr_forward_ms_p50", sum_ms(&Series::csr_ms, 0.5), "ms",
                counts(&Series::csr_ms));
  Report::print("reference_forward_ms_p50", sum_ms(&Series::ref_ms, 0.5),
                "ms", counts(&Series::ref_ms));
}

// ---------------------------------------------------------- traced run --

/// Per-layer sums over a workload's graphs.
struct LayerTotals {
  double normalize_s = 0, distance_graph_s = 0, solve_s = 0, delta_s = 0;
  double compress_s = 0, scale_s = 0;
  double candidate_edges = 0, compressed_rows = 0, root_out_degree = 0;
  double max_depth = 0, total_deltas = 0, bytes = 0;
  double multiply_stage_ms = 0, update_stage_ms = 0;
  double scalar_ops = 0, computed_bytes = 0, flops = 0, gemm_flops = 0;
  double resolve_s = 0, candidates = 0, log_regret = 0;
};

/// Span durations (ms) by name, for one graph.
using Samples = std::map<std::string, std::vector<double>>;

/// Setup, phase by phase through the layers' own entry points, then the
/// whole compress_scaled for comparison. Leaves c.cbm / c.csr built.
void trace_setup(CaseState& c, SpanRecorder& rec, int& run, Checker& chk,
                 LayerTotals& t) {
  const GraphCase& gc = *c.gc;
  Samples s;
  for (int rep = 0; rep < kTracedSetupReps; ++rep) {
    ++run;
    const int setup = rec.open("setup", run);
    cbm::GcnNormalization<real> norm;
    s["normalize"].push_back(traced(rec, "graph.normalize", run, [&] {
      norm = cbm::gcn_normalization<real>(gc.graph);
    }));
    const std::span<const real> d(norm.dinv_sqrt);
    cbm::DistanceGraph dg;
    s["distance_graph"].push_back(traced(rec, "cbm.distance_graph", run, [&] {
      dg = cbm::build_distance_graph(norm.a_plus_i, {.alpha = gc.alpha});
    }));
    cbm::CompressionTree tree;
    s["solve"].push_back(traced(rec, "tree.solve", run, [&] {
      cbm::ArborescenceResult arb =
          cbm::chu_liu_edmonds(dg.num_nodes, dg.edges, dg.root);
      arb.parent.resize(static_cast<std::size_t>(c.n));  // drop the root
      tree = cbm::CompressionTree::from_parents(std::move(arb.parent));
    }));
    cbm::DeltaStats ds;
    s["delta"].push_back(traced(rec, "cbm.delta", run, [&] {
      (void)cbm::build_delta_matrix(norm.a_plus_i, tree, d, &ds);
    }));
    rec.close(setup);

    cbm::CbmStats stats;
    std::optional<cbm::CbmMatrix<real>> m;
    s["compress"].push_back(traced(rec, "cbm.compress", run, [&] {
      m = cbm::CbmMatrix<real>::compress_scaled(
          norm.a_plus_i, d, cbm::CbmKind::kSymScaled, {.alpha = gc.alpha},
          &stats);
    }));
    chk.check(ds.total_deltas == stats.total_deltas,
              gc.name + ": phase-by-phase deltas differ from compress_scaled");
    s["scale"].push_back(traced(rec, "sparse.scale_both", run,
                                [&] { c.csr = make_csr_operand(norm); }));
    if (rep + 1 == kTracedSetupReps) {
      t.candidate_edges += static_cast<double>(dg.candidate_edges);
      t.compressed_rows += c.n - tree.root_out_degree();
      t.root_out_degree += tree.root_out_degree();
      t.max_depth = std::max<double>(t.max_depth, tree.max_depth());
      t.total_deltas += static_cast<double>(stats.total_deltas);
      t.bytes += static_cast<double>(stats.bytes);
      c.cbm = std::make_unique<cbm::CbmAdjacency<real>>(std::move(*m));
    }
  }
  t.normalize_s += median(s["normalize"]) / 1e3;
  t.distance_graph_s += median(s["distance_graph"]) / 1e3;
  t.solve_s += median(s["solve"]) / 1e3;
  t.delta_s += median(s["delta"]) / 1e3;
  t.compress_s += median(s["compress"]) / 1e3;
  t.scale_s += median(s["scale"]) / 1e3;
}

/// The two stages of the default CBM product on their own, and the tuner.
void trace_stages(CaseState& c, double budget_s, SpanRecorder& rec, int& run,
                  Checker& chk, LayerTotals& t) {
  const cbm::CbmMatrix<real>& m = c.cbm->matrix();
  const cbm::CsrMatrix<real>& csr = c.csr->matrix();
  const cbm::MultiplySchedule plan = c.cbm->schedule();
  Dense xw(c.n, kWidth), c_stage(c.n, kWidth), c_upd(c.n, kWidth),
      c_cbm(c.n, kWidth), c_csr(c.n, kWidth);
  cbm::gemm(c.x, c.model.layer0().weight(), xw);
  cbm::csr_spmm(csr, xw, c_csr);

  // Warm-up call, then spans until the budget is spent. `prep` restores
  // the in-place operand outside the span.
  const auto repeat = [&](const char* name, auto&& prep, auto&& fn) {
    prep();
    fn();
    std::vector<double> ms;
    cbm::Timer timer;
    while (ms.size() < kMinKernelReps ||
           (timer.seconds() < budget_s && ms.size() < kMaxKernelReps)) {
      prep();
      ms.push_back(traced(rec, name, ++run, fn));
    }
    return median(ms);
  };
  t.multiply_stage_ms += repeat("cbm.multiply_stage", [] {}, [&] {
    cbm::csr_spmm(m.delta_matrix(), xw, c_stage, plan.spmm);
  });
  t.update_stage_ms += repeat("cbm.update_stage", [&] { c_upd = c_stage; },
                              [&] {
                                cbm::cbm_update_stage(m.tree(), m.kind(),
                                                      m.diagonal(), c_upd,
                                                      plan.update);
                              });
  chk.compare(c.gc->name + " multiply+update stages", c_upd, c_csr);

  t.scalar_ops += static_cast<double>(m.scalar_ops(kWidth));
  // Computed, not measured: the operand once, B read once, C written once.
  t.computed_bytes += static_cast<double>(m.bytes()) +
                      2.0 * static_cast<double>(c.n) * kWidth * sizeof(real);
  t.flops += static_cast<double>(cbm::csr_spmm_flops(csr, kWidth));
  t.gemm_flops += 2.0 * static_cast<double>(c.n) * kWidth * kWidth;

  // Tuner: one forced resolve (in-memory cache), then every plan the tuner
  // considers plus the two-stage schedules and the fused engine by name,
  // timed alike; regret = the tuned plan's time ÷ the fastest.
  cbm::RuntimeConfig tune_cfg;
  tune_cfg.tune_mode = "force";
  cbm::tune::PlanDecision decision;
  t.resolve_s += traced(rec, "tune.resolve", ++run, [&] {
                   decision = m.resolve_plan(xw, c_cbm, tune_cfg);
                 }) /
                 1e3;
  cbm::tune::ShapeKey key;
  key.rows = m.rows();
  key.cols = m.cols();
  key.bcols = kWidth;
  key.delta_nnz = static_cast<std::int64_t>(m.delta_matrix().nnz());
  key.threads = cbm::max_threads();
  key.elem_bytes = sizeof(real);
  std::vector<cbm::tune::Plan> sweep = cbm::tune::candidate_plans(key);
  t.candidates += static_cast<double>(sweep.size());
  for (const char* update : {"sequential", "branch_dynamic", "branch_static",
                             "column_split", "task_graph", "fused"}) {
    cbm::RuntimeConfig cfg;
    if (std::string(update) == "fused") {
      cfg.multiply_path = "fused";
    } else {
      cfg.multiply_path = "two_stage";
      cfg.update_schedule = update;
    }
    try {
      sweep.push_back({cbm::MultiplySchedule::from_config(cfg),
                       cbm::simd_level()});
    } catch (const std::exception&) {
      // A schedule the library no longer offers is not swept.
    }
  }
  const auto time_plan = [&](const cbm::tune::Plan& p) {
    cbm::SimdScope scope(p.simd);
    const auto opts = cbm::MultiplyOptions::with_plan(p.schedule);
    m.multiply(xw, c_cbm, opts);
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      cbm::Timer timer;
      m.multiply(xw, c_cbm, opts);
      ms.push_back(timer.millis());
    }
    return median(ms);
  };
  const double tuned_ms = time_plan(decision.plan);
  chk.compare(c.gc->name + " tuned plan", c_cbm, c_csr);
  double best_ms = tuned_ms;
  for (const auto& p : sweep) best_ms = std::min(best_ms, time_plan(p));
  t.log_regret += std::log(tuned_ms / best_ms);
}

/// Gcn2::forward's steps (X·W⁰, Â·, σ, ·W¹, Â·) through the layers' public
/// calls, one span per call under a `root` span; `aggregate` is the Â
/// product. Per forward, `s` gets the root's duration and the mean call of
/// each step under the span names (the two GEMMs differ — X arrives cold,
/// H¹ warm — so pooling their calls would give a bimodal median).
template <typename Aggregate>
void forward_steps(CaseState& c, SpanRecorder& rec, int run, Samples& s,
                   const char* root, const char* gemm, const char* relu,
                   const char* product, Aggregate&& aggregate) {
  const int id = rec.open(root, run);
  auto& ws = c.ws;
  double gemm_ms = traced(rec, gemm, run, [&] {
    cbm::gemm(c.x, c.model.layer0().weight(), ws.xw);
  });
  double product_ms =
      traced(rec, product, run, [&] { aggregate(ws.xw, ws.h1); });
  const double relu_ms =
      traced(rec, relu, run, [&] { cbm::relu_inplace(ws.h1); });
  gemm_ms += traced(rec, gemm, run, [&] {
    cbm::gemm(ws.h1, c.model.layer1().weight(), ws.hw);
  });
  product_ms += traced(rec, product, run, [&] { aggregate(ws.hw, c.out); });
  s[root].push_back(rec.close(id));
  s[gemm].push_back(gemm_ms / 2);
  s[product].push_back(product_ms / 2);
  s[relu].push_back(relu_ms);
}

void run_traced(const Args& args, std::vector<CaseState>& cases,
                Checker& chk, Report& report) {
  SpanRecorder rec;
  int run = 0;
  LayerTotals t;
  for (CaseState& c : cases) trace_setup(c, rec, run, chk, t);
  const double stage_budget =
      args.seconds * 0.1 / (2.0 * static_cast<double>(cases.size()));
  for (CaseState& c : cases) trace_stages(c, stage_budget, rec, run, chk, t);

  // Forwards, interleaved per round: the library's Gcn2::forward with the
  // CBM operand and no span (the denominator of trace.overhead and
  // gnn.overhead_ms), with the CBM and the CSR operand (one span each), and
  // the same steps call by call with either operand, at host threads and at
  // one thread.
  std::vector<Samples> per_case(cases.size());
  const auto round = [&] {
    ++run;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      CaseState& c = cases[i];
      Samples& s = per_case[i];
      const cbm::CbmMatrix<real>& m = c.cbm->matrix();
      const cbm::CsrMatrix<real>& csr = c.csr->matrix();
      const auto opts = cbm::MultiplyOptions::with_plan(c.cbm->schedule());
      const auto cbm_product = [&](const Dense& b, Dense& out) {
        m.multiply(b, out, opts);
      };
      const auto csr_product = [&](const Dense& b, Dense& out) {
        cbm::csr_spmm(csr, b, out);
      };
      // Wake the thread pool, asleep after the last round's one-thread work.
      c.model.forward(*c.cbm, c.x, c.ws, c.out);
      cbm::Timer untraced;  // the end-to-end run's forward, with no span
      c.model.forward(*c.cbm, c.x, c.ws, c.out);
      s["untraced_forward"].push_back(untraced.millis());
      chk.compare(c.gc->name + " forward", c.out, c.csr_forward);
      s["gnn.gcn2_forward"].push_back(traced(rec, "gnn.gcn2_forward", run, [&] {
        c.model.forward(*c.cbm, c.x, c.ws, c.out);
      }));
      s["gnn.gcn2_csr_forward"].push_back(
          traced(rec, "gnn.gcn2_csr_forward", run,
                 [&] { c.model.forward(*c.csr, c.x, c.ws, c.out); }));
      forward_steps(c, rec, run, s, "gnn.forward", "dense.gemm", "dense.relu",
                    "cbm.multiply", cbm_product);
      chk.compare(c.gc->name + " forward by steps", c.out, c.csr_forward);
      forward_steps(c, rec, run, s, "gnn.csr_forward", "dense.gemm",
                    "dense.relu", "sparse.csr_spmm", csr_product);
      cbm::ThreadScope one(1);
      forward_steps(c, rec, run, s, "gnn.forward_t1", "dense.gemm_t1",
                    "dense.relu_t1", "cbm.multiply_t1", cbm_product);
      chk.compare(c.gc->name + " forward by steps, 1 thread", c.out,
                  c.csr_forward);
      forward_steps(c, rec, run, s, "gnn.csr_forward_t1", "dense.gemm_t1",
                    "dense.relu_t1", "sparse.csr_spmm_t1", csr_product);
    }
  };
  round();  // warm-up
  for (Samples& s : per_case) s.clear();
  cbm::Timer fwd;
  while (fwd.seconds() < args.seconds * 0.75 ||
         per_case[0]["gnn.forward"].size() < kMinTracedForwards) {
    round();
  }
  // Per-call medians, summed over the workload's graphs.
  const auto layer = [&](const char* name) {
    double sum = 0.0;
    for (Samples& s : per_case) sum += median(s[name]);
    return sum;
  };
  const double fwd_ms = layer("untraced_forward");
  const double gemm_ms = layer("dense.gemm");
  const double multiply_ms = layer("cbm.multiply");
  const double relu_ms = layer("dense.relu");

  report.add("graph.normalize_s", t.normalize_s, "s");
  report.add("cbm.distance_graph_s", t.distance_graph_s, "s");
  report.add("cbm.candidate_edges", t.candidate_edges, "count");
  report.add("tree.solve_s", t.solve_s, "s");
  report.add("tree.compressed_rows", t.compressed_rows, "count");
  report.add("tree.root_out_degree", t.root_out_degree, "count");
  report.add("tree.max_depth", t.max_depth, "count");
  report.add("cbm.delta_s", t.delta_s, "s");
  report.add("cbm.total_deltas", t.total_deltas, "count");
  report.add("cbm.bytes", t.bytes, "bytes");
  report.add("cbm.compress_s", t.compress_s, "s",
             "(phase sum " + std::to_string(t.distance_graph_s + t.solve_s +
                                            t.delta_s) +
                 " s)");
  report.add("cbm.multiply_ms", multiply_ms, "ms");
  report.add("cbm.multiply_t1_ms", layer("cbm.multiply_t1"), "ms");
  report.add("cbm.multiply_stage_ms", t.multiply_stage_ms, "ms");
  report.add("cbm.update_stage_ms", t.update_stage_ms, "ms");
  report.add("cbm.scalar_ops", t.scalar_ops, "count");
  report.add("cbm.ops_per_byte", t.scalar_ops / t.computed_bytes, "ops/B",
             "(computed from sizes)");
  report.add("sparse.csr_spmm_ms", layer("sparse.csr_spmm"), "ms");
  report.add("sparse.csr_spmm_t1_ms", layer("sparse.csr_spmm_t1"), "ms");
  report.add("sparse.flops", t.flops, "count");
  report.add("dense.gemm_ms", gemm_ms, "ms");
  report.add("dense.gemm_gflops", t.gemm_flops / (gemm_ms * 1e6), "GFLOP/s");
  report.add("dense.relu_ms", relu_ms, "ms");
  report.add("gnn.aggregate_share", 2 * multiply_ms / fwd_ms, "fraction");
  const double overhead_ms = fwd_ms - (2 * gemm_ms + 2 * multiply_ms + relu_ms);
  report.add("gnn.overhead_ms", overhead_ms, "ms",
             "(untraced Gcn2::forward p50 " + std::to_string(fwd_ms) +
                 " ms over " +
                 std::to_string(per_case[0]["untraced_forward"].size()) +
                 " samples)");
  if (std::abs(overhead_ms) > kMaxOverheadShare * fwd_ms) {
    std::printf("# WARNING gnn.overhead_ms is %.1f%% of the forward: the "
                "timed parts do not account for it\n",
                100.0 * overhead_ms / fwd_ms);
  }
  // Both forwards sit in one span each, so the span's cost cancels out.
  const double saving_s =
      (layer("gnn.gcn2_csr_forward") - layer("gnn.gcn2_forward")) / 1e3;
  report.add("gnn.breakeven_forwards",
             saving_s > 0 ? (t.compress_s - t.scale_s) / saving_s : -1.0,
             "count", saving_s > 0 ? "" : "(never: CBM forward not faster)");
  report.add("tune.resolve_s", t.resolve_s, "s");
  report.add("tune.candidates", t.candidates, "count");
  report.add("tune.regret",
             std::exp(t.log_regret / static_cast<double>(cases.size())),
             "ratio");
  report.add("trace.overhead", layer("gnn.forward") / fwd_ms, "ratio");

  // Self time per span name (duration minus direct children), per call.
  const auto self = rec.self_ms();
  for (const auto& [name, ms] : rec.durations_ms()) {
    std::printf("# span %-22s calls=%-5zu p50=%.4f ms self_p50=%.4f ms\n",
                name.c_str(), ms.size(), median(ms), median(self.at(name)));
  }
  if (!args.trace_out.empty()) {
    if (rec.write_chrome_trace(args.trace_out)) {
      std::cout << "# trace written to " << args.trace_out << "\n";
    } else {
      std::cout << "# could not write trace to " << args.trace_out << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const int threads =
      args.trace ? std::clamp(nproc() / 2, 1, kMaxThreads) : 1;
  cbm::set_threads(threads);
  // Keep the tuner's cache in memory: the benchmark writes nothing outside
  // its build directory, and no earlier run's cache decides a plan.
  cbm::tune::Tuner::instance().set_cache_path("");

  const Workload w = make_workload(args.workload, args.seed, args.tiny);
  print_header(args, w, threads);
  Checker chk(args.corrupt);
  Report report;
  try {
    std::vector<CaseState> cases;
    cases.reserve(w.cases.size());
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      cases.emplace_back(w.cases[i], args.seed, i);
    }
    if (args.trace) {
      run_traced(args, cases, chk, report);
    } else {
      run_end_to_end(w, args, cases, chk, report);
    }
  } catch (const std::exception& e) {
    chk.threw("workload", e);
  }
  const double fail_rate = chk.attempted() == 0
                               ? 1.0
                               : static_cast<double>(chk.failed()) /
                                     static_cast<double>(chk.attempted());
  // Not in the JSON metrics: a passing run reads 0, and the result's
  // attempted/failed carry it.
  Report::print("fail_rate", fail_rate, "fraction",
                "(" + std::to_string(chk.failed()) + " of " +
                    std::to_string(chk.attempted()) + " checked outputs)");
  report.print_json(chk);
  return chk.failed() == 0 && chk.attempted() > 0 ? 0 : 1;
}
