// Private-inference benchmark: three named workloads over the FLASH CPU
// stack, measured from outside through the public API only.
//
//   hconv-cold       closed loop, one client: ConvRunner::run without a plan
//                    on Fig. 1's layer (NTT backend, N=4096). Weight
//                    transforms sit on the request path; no serving layer.
//   serve-clients    closed loop, 8 clients on a ConvServer (approx-FFT,
//                    N=4096, 2 dispatchers) over three registered plans,
//                    ResNet-18's conv classes in its layer counts (see
//                    kMix). Its traced run adds an open-loop
//                    segment: Poisson arrivals from the generator thread at
//                    about half the capacity measured on a 4-core x86 VM.
//   resnet-sessions  closed loop, 4 outstanding NetworkSessions of
//                    resnet18_like (approx-FFT, N=2048); a request is one
//                    whole private inference.
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) record spans from this file around every call into a layer,
// drive the inner layers directly at the workload's own shapes and inputs,
// and print the per-layer metrics. Every result is checked: each completed
// request against the cleartext convolution, and a seeded sample against a
// serial reference run outside the timed window. The last stdout line is one
// JSON object; run.py validates it against BENCHMARK.json.
//
// Why open-loop serving is not an end-to-end workload: on a 4-vCPU x86
// VM, open-loop latency at half load moved 25-30% between runs of one seed
// while CPU per request moved 2-10% (idle dispatcher wake-ups and queueing
// amplify the machine's drift), more than any bound can hold. Closed loops
// that keep the dispatchers busy repeat within a few percent. Sharded
// serving (wire + shard) is likewise driven directly in serve-clients'
// traced run: as an open-loop workload of its own its single-threaded
// workers ran near saturation.
//
// Nothing here reads the accelerator cost model or the shard worker's dwell
// sleep: every number is measured CPU work.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "bfv/context.hpp"
#include "bfv/encrypt.hpp"
#include "bfv/polymul_engine.hpp"
#include "core/flash_accelerator.hpp"
#include "encoding/encoder.hpp"
#include "fft/transform_cache.hpp"
#include "hemath/simd.hpp"
#include "protocol/conv_geometry.hpp"
#include "protocol/conv_runner.hpp"
#include "protocol/plan_certificate.hpp"
#include "serve/conv_server.hpp"
#include "serve/network_session.hpp"
#include "shard/shard_router.hpp"
#include "sparsefft/planner.hpp"
#include "tensor/conv.hpp"
#include "tensor/quant.hpp"
#include "tensor/resnet.hpp"
#include "wire/wire_format.hpp"

#ifndef PRIVBENCH_BUILD_TYPE
#define PRIVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PRIVBENCH_COMPILER
#define PRIVBENCH_COMPILER "unknown"
#endif

namespace {

using namespace flash;
using hemath::u64;
using privbench::Clock;
using privbench::Outcome;
using privbench::RequestRecord;
using privbench::Scoped;
using privbench::Tracer;
using privbench::to_ns;

// ---------------------------------------------------------------------------
// Fixed workload constants. The seed drives activations, per-request weights
// (hconv-cold) and arrival times; the served model (plan weights, network)
// is fixed, like a deployed model.

constexpr std::size_t kSetupMinReps = 3;     // setup_s is the median of
constexpr double kSetupMinMs = 1000.0;       //   at least this many set-ups
constexpr std::size_t kSetupMaxReps = 50;    //   and this much time
constexpr std::size_t kSampleChecks = 3;     // bit-identity checks vs serial runs
constexpr double kOpenRateRps = 34.0;        // serve-clients open-loop segment: rate
constexpr double kOpenSeconds = 10.0;        //   and length
// Generator p99 lateness limit: one mean arrival gap.
constexpr double kMaxLatenessMs = 1e3 / kOpenRateRps;
// hconv-cold: traced phase sum vs untraced median latency. Wide because the
// two are measured seconds apart on a machine whose speed drifts by ~15%.
constexpr double kAccountingTolerance = 0.25;
constexpr std::size_t kSessionsInFlight = 4;
constexpr std::uint64_t kModelSeed = 20251021;
constexpr std::uint64_t kProtocolSeed = 20250806;
constexpr auto kPollInterval = std::chrono::microseconds(200);
constexpr double kDrainTimeoutS = 60.0;

struct LayerShape {
  std::size_t in_c, h, w, out_c, k, stride, pad;
  std::size_t weight;  // relative frequency in the traffic mix
};

// serve-clients' traffic: the three conv classes of ResNet-18
// (tensor::resnet18_conv_layers()), each weighted by how many of the
// network's layers it has. 3x3 stride 1: 13 layers; 3x3 stride 2 (the first
// conv of each downsampling block): 3; 1x1 stride 2 (the downsample
// shortcuts): 3. The 7x7 stem, one layer, is left out. Shapes are scaled to
// bench_serve's layer (16ch 12x12, 3x3 -> 32); the two stride-2 layers keep
// ResNet's downsampling form on that input, channels doubling to 32.
// check_mix() recounts the classes from the network at start-up.
constexpr LayerShape kMix[] = {
    {16, 12, 12, 32, 3, 1, 1, 13},
    {16, 12, 12, 32, 3, 2, 1, 3},
    {16, 12, 12, 32, 1, 2, 0, 3},
};
constexpr std::size_t kMixPlans = std::size(kMix);

double mix_share(std::size_t p) {
  std::size_t total = 0;
  for (const LayerShape& l : kMix) total += l.weight;
  return static_cast<double>(kMix[p].weight) / static_cast<double>(total);
}

/// The mix weights must be ResNet-18's layer counts per (kernel, stride).
void check_mix() {
  for (const LayerShape& m : kMix) {
    std::size_t count = 0;
    for (const tensor::LayerConfig& l : tensor::resnet18_conv_layers()) {
      if (l.kernel == m.k && l.stride == m.stride) ++count;
    }
    if (count != m.weight) throw std::logic_error("traffic mix no longer matches ResNet-18");
  }
}

// Fig. 1's layer: 32ch 16x16, 3x3 -> 32, 'same' padding.
constexpr LayerShape kFig1 = {32, 16, 16, 32, 3, 1, 1, 1};

bfv::BfvParams params_4096() { return bfv::BfvParams::create(4096, 20, 49); }
bfv::BfvParams params_2048() { return bfv::BfvParams::create(2048, 17, 44); }

// ---------------------------------------------------------------------------
// Output
//
// Exit codes: 0 the result was printed and every output was correct; 1 a
// wrong result (the result line is still printed when it can be computed);
// 2 usage error or a refused build; 3 a run that cannot be reported, printed
// without a result.

/// Thrown when a run had wrong results and also cannot be reported.
struct WrongResult : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Metric {
  double value;
  std::string unit;
};

struct Report {
  std::vector<std::pair<std::string, Metric>> metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Report& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, m] = r.metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Process resources

double self_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
          static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-3);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Workload inputs

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<tensor::Tensor4> mix_weights() {
  std::mt19937_64 rng(kModelSeed);
  std::vector<tensor::Tensor4> w;
  for (const LayerShape& l : kMix) {
    w.push_back(tensor::random_weights(l.out_c, l.in_c, l.k, 4, rng));
  }
  return w;
}

struct Arrival {
  double offset_s;
  std::size_t plan;  // index into kMix
  tensor::Tensor3 x;
};

/// Poisson arrivals at `rate` over [0, seconds), conditioned on their count:
/// exactly round(rate * seconds) arrivals at the order statistics of uniform
/// times (normalized exponential gaps), with the plan mix split in exact
/// proportions and shuffled. Seeds then differ only in arrival order and
/// clustering, not in how much work a run offers. Deterministic in `seed`.
std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds, double rate) {
  std::mt19937_64 rng(mix64(seed ^ 0x5C4EDULL));
  const std::size_t n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::exponential_distribution<double> gap(1.0);
  std::vector<double> at(n + 1);
  double sum = 0;
  for (double& a : at) a = (sum += gap(rng));
  std::vector<std::size_t> plans;
  for (std::size_t p = 0; p < kMixPlans; ++p) {
    const double share = mix_share(p) * static_cast<double>(n);
    const std::size_t want =
        p + 1 == kMixPlans ? n - plans.size() : static_cast<std::size_t>(std::llround(share));
    plans.insert(plans.end(), std::min(want, n - plans.size()), p);
  }
  std::shuffle(plans.begin(), plans.end(), rng);
  std::vector<Arrival> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LayerShape& l = kMix[plans[i]];
    out.push_back({at[i] / at[n] * seconds, plans[i],
                   tensor::random_activations(l.in_c, l.h, l.w, 4, rng)});
  }
  return out;
}

/// Seeded, distinct request indices for the serial bit-identity checks.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  std::mt19937_64 rng(mix64(seed ^ 0xC4ECULL));
  while (out.size() < std::min(k, n)) {
    const std::size_t i = static_cast<std::size_t>(rng() % n);
    if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
  }
  return out;
}

tensor::LayerStack resnet_stack() {
  std::mt19937_64 rng(kModelSeed);
  return tensor::LayerStack::resnet18_like(3, 4, 8, 4, 4, 4, rng);
}

// ---------------------------------------------------------------------------
// Generic run bookkeeping

struct RunStats {
  std::vector<RequestRecord> records;
  std::vector<std::uint64_t> fingerprints;  // of each completed result
  std::vector<double> backlog;              // open loop: backlog at each send
  double window_s = 0;                      // first due -> last completion
  double cpu_ms = 0;                        // process CPU over the window
  bool open_loop = false;
};

struct Timer {
  Clock::time_point start = Clock::now();
  double ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  }
};

/// Finish a run: window from the first due time to the last completion.
void close_window(RunStats& st) {
  std::int64_t first = INT64_MAX, last = INT64_MIN;
  for (const RequestRecord& r : st.records) {
    first = std::min(first, r.due_ns);
    if (r.outcome != Outcome::kPending) last = std::max(last, r.done_ns);
  }
  st.window_s = last > first ? static_cast<double>(last - first) * 1e-9 : 0.0;
}

/// Prints a run's outcome counts and sample count, and for an open loop
/// the generator's lateness and the backlog. Returns why the run cannot be
/// reported (empty when it can); `lat` receives the correct latencies.
std::string summarize(const char* label, const RunStats& st, std::vector<double>& lat) {
  lat = privbench::ok_latencies_ms(st.records);
  const privbench::Tally t = privbench::tally(st.records);
  std::printf("# %s: attempted %llu ok %llu wrong %llu failed %llu rejected %llu deadline %llu; "
              "latency samples %zu (p95 supported: %s)\n",
              label, static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.ok), static_cast<unsigned long long>(t.wrong),
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.rejected),
              static_cast<unsigned long long>(t.deadline),
              lat.size(), privbench::percentile_supported(lat.size(), 0.95) ? "yes" : "no");
  if (!st.open_loop) return {};
  const std::vector<double> late = privbench::lateness_ms(st.records);
  const double late_p99 = privbench::percentile(late, 0.99);
  const bool grows = privbench::backlog_grows(st.backlog, 16.0);
  std::printf("# %s: generator lateness p50 %.3f p99 %.3f max %.3f ms (limit %.1f), "
              "backlog at end %.0f, growing: %s\n",
              label, privbench::percentile(late, 0.5), late_p99, privbench::percentile(late, 1.0),
              kMaxLatenessMs, st.backlog.empty() ? 0.0 : st.backlog.back(), grows ? "yes" : "no");
  if (!(late_p99 <= kMaxLatenessMs)) return "generator lagged its schedule";
  if (grows) return "backlog grew over the window";
  return {};
}

// ---------------------------------------------------------------------------
// Layer drive (traced runs): the HConv units of one conv, run one by one
// through HConvProtocol::run_stream exactly as ConvRunner lowers it, so each
// unit's HConvProfile and op counters are visible.

struct UnitTotals {
  protocol::HConvProfile profile;
  bfv::PolyMulCounters ops;
  std::size_t units = 0;
};

tensor::Tensor3 pad_input(const tensor::Tensor3& x, std::size_t pad) {
  if (pad == 0) return x;
  tensor::Tensor3 out(x.channels(), x.height() + 2 * pad, x.width() + 2 * pad);
  for (std::size_t c = 0; c < x.channels(); ++c)
    for (std::size_t y = 0; y < x.height(); ++y)
      for (std::size_t v = 0; v < x.width(); ++v) out.at(c, y + pad, v + pad) = x.at(c, y, v);
  return out;
}

tensor::Tensor3 subsample(const tensor::Tensor3& x, std::size_t s, std::size_t a, std::size_t b) {
  const std::size_t h = protocol::phase_extent(x.height(), s, a);
  const std::size_t w = protocol::phase_extent(x.width(), s, b);
  tensor::Tensor3 out(x.channels(), h, w);
  for (std::size_t c = 0; c < x.channels(); ++c)
    for (std::size_t u = 0; u < h; ++u)
      for (std::size_t v = 0; v < w; ++v) out.at(c, u, v) = x.at(c, s * u + a, s * v + b);
  return out;
}

void add_profile(protocol::HConvProfile& acc, const protocol::HConvProfile& p) {
  acc.share_encode_s += p.share_encode_s;
  acc.encrypt_s += p.encrypt_s;
  acc.weight_transform_s += p.weight_transform_s;
  acc.cipher_transform_mul_s += p.cipher_transform_mul_s;
  acc.mask_s += p.mask_s;
  acc.decrypt_s += p.decrypt_s;
  acc.bytes_client_to_server += p.bytes_client_to_server;
  acc.bytes_server_to_client += p.bytes_server_to_client;
}

void add_ops(bfv::PolyMulCounters& acc, const bfv::PolyMulCounters& o) {
  acc.plain_transforms += o.plain_transforms;
  acc.cipher_transforms += o.cipher_transforms;
  acc.inverse_transforms += o.inverse_transforms;
  acc.pointwise_products += o.pointwise_products;
}

void drive_units(protocol::HConvProtocol& proto, const protocol::ConvPlan* plan,
                 const tensor::Tensor3& x, const tensor::Tensor4& w, std::size_t stride,
                 std::size_t pad, std::uint64_t stream_base, Tracer& tr, std::uint64_t parent,
                 std::uint64_t request, UnitTotals& totals) {
  const std::size_t n = proto.context().params().n;
  const tensor::Tensor3 padded = pad_input(x, pad);
  std::vector<protocol::PhaseDef> phases;
  if (stride == 1) {
    phases.push_back({0, 0, 0});
  } else {
    phases = protocol::live_phases(w.kernel_h(), w.kernel_w(), stride);
  }
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const protocol::PhaseDef& ph = phases[p];
    const tensor::Tensor4 wp = stride == 1 ? w : protocol::kernel_phase(w, stride, ph.a, ph.b);
    const tensor::Tensor3 xp = stride == 1 ? padded : subsample(padded, stride, ph.a, ph.b);
    const std::uint64_t base = stride == 1 ? stream_base : stream_base + (ph.index << 16);
    const std::size_t kh = wp.kernel_h(), kw = wp.kernel_w();
    const auto tasks = protocol::tile_grid(n, xp.height(), xp.width(), kh, kw);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const protocol::TileTask& tk = tasks[i];
      const std::size_t patch_h = tk.th + kh - 1, patch_w = tk.tw + kw - 1;
      tensor::Tensor3 patch(xp.channels(), patch_h, patch_w);
      for (std::size_t c = 0; c < xp.channels(); ++c)
        for (std::size_t y = 0; y < patch_h; ++y)
          for (std::size_t v = 0; v < patch_w; ++v) {
            patch.at(c, y, v) = xp.at(c, tk.ty + y, tk.tx + v);
          }
      const protocol::HConvProtocol::PreparedWeights* cached =
          plan != nullptr ? plan->phases[p].tiles.at({patch_h, patch_w}).get() : nullptr;
      Scoped span(tr, "protocol.run_stream", parent, request);
      const protocol::HConvResult r = proto.run_stream(patch, wp, base + i, cached);
      add_profile(totals.profile, r.profile);
      add_ops(totals.ops, r.ops);
      ++totals.units;
    }
  }
}

/// Per-request phase totals over a sample of requests -> protocol.* metrics.
struct PhaseSamples {
  std::vector<double> share_encode, encrypt, weight_transform, ct_mul, mask, decrypt, sum;
  std::vector<UnitTotals> totals;

  void add(const UnitTotals& t) {
    const auto& p = t.profile;
    share_encode.push_back(p.share_encode_s * 1e3);
    encrypt.push_back(p.encrypt_s * 1e3);
    weight_transform.push_back(p.weight_transform_s * 1e3);
    ct_mul.push_back(p.cipher_transform_mul_s * 1e3);
    mask.push_back(p.mask_s * 1e3);
    decrypt.push_back(p.decrypt_s * 1e3);
    sum.push_back(p.total_s() * 1e3);
    totals.push_back(t);
  }
};

template <typename F>
std::vector<double> repeat_us(Tracer& tr, const std::string& name, std::uint64_t parent,
                              std::size_t reps, F&& fn) {
  std::vector<double> us;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    tr.add(name, parent, 0, to_ns(t0), to_ns(t1));
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return us;
}

/// Kernel- and codec-level measurements at one workload's ring parameters
/// and conv unit shape: hemath NTT, FP/FXP FFT, PolyMulEngine, encrypt /
/// decrypt, the sparse planner's counts, and the wire codecs.
void drive_kernels(Report& rep, Tracer& tr, const bfv::BfvContext& ctx,
                   bfv::PolyMulBackend backend, const fft::FxpFftConfig& approx_cfg,
                   const tensor::Tensor3& x, const tensor::Tensor4& w, std::size_t stride,
                   std::size_t pad, const protocol::ConvRunnerResult& sample_result) {
  const auto& p = ctx.params();
  const std::size_t n = p.n;
  Scoped root(tr, "drive.kernels");
  std::mt19937_64 rng(mix64(n));
  constexpr std::size_t kReps = 30;

  // hemath: one polynomial, and the batched SoA path per polynomial.
  std::vector<u64> poly(n);
  for (auto& v : poly) v = rng() % p.q;
  const hemath::NttTables& ntt = ctx.ntt();
  const auto fwd = repeat_us(tr, "hemath.ntt_fwd", root.id(), kReps, [&] { ntt.forward(poly); });
  const auto inv = repeat_us(tr, "hemath.ntt_inv", root.id(), kReps, [&] { ntt.inverse(poly); });
  constexpr std::size_t kBatch = 8;
  std::vector<std::vector<u64>> batch(kBatch, poly);
  std::vector<u64*> ptrs;
  for (auto& b : batch) ptrs.push_back(b.data());
  auto fwd_batch = repeat_us(tr, "hemath.ntt_fwd_batch", root.id(), kReps / 3, [&] {
    ntt.forward_batch_into(std::span<u64* const>(ptrs));
  });
  for (auto& v : fwd_batch) v /= static_cast<double>(kBatch);
  rep.put("hemath.ntt_fwd_us", privbench::median(fwd), "us");
  rep.put("hemath.ntt_inv_us", privbench::median(inv), "us");
  rep.put("hemath.ntt_fwd_batch_us", privbench::median(fwd_batch), "us");

  // The first conv unit of this workload fixes the encoded polynomials.
  const auto units = protocol::enumerate_conv_units(n, x.channels(), x.height(), x.width(), w,
                                                    stride, pad);
  const protocol::ConvUnit& unit = units.front();
  const encoding::ConvEncoder enc(n, unit.weights.in_channels(), unit.patch_h, unit.patch_w,
                                  unit.weights.kernel_h(), unit.weights.kernel_w());
  const std::vector<tensor::i64> wcoeffs = enc.encode_weight(unit.weights, 0, 0);
  tensor::Tensor3 patch(unit.weights.in_channels(), unit.patch_h, unit.patch_w);
  for (auto& v : patch.data()) v = static_cast<tensor::i64>(rng() % 16);
  const std::vector<tensor::i64> acoeffs = enc.encode_activation(patch, 0);

  // fft: the approximate FXP weight transform and the FP transforms.
  std::vector<double> wd(wcoeffs.begin(), wcoeffs.end());
  const auto fxp = fft::shared_fxp_transform(n, approx_cfg);
  const auto fxp_us =
      repeat_us(tr, "fft.fxp_fwd", root.id(), kReps, [&] { (void)fxp->forward(wd); });
  std::vector<fft::cplx> spec;
  const auto fp_fwd =
      repeat_us(tr, "fft.fp_fwd", root.id(), kReps, [&] { spec = ctx.fft().forward(wd); });
  const auto fp_inv =
      repeat_us(tr, "fft.fp_inv", root.id(), kReps, [&] { (void)ctx.fft().inverse(spec); });
  rep.put("fft.fxp_fwd_us", privbench::median(fxp_us), "us");
  rep.put("fft.fp_fwd_us", privbench::median(fp_fwd), "us");
  rep.put("fft.fp_inv_us", privbench::median(fp_inv), "us");

  // bfv: the engine of this workload's backend, and encrypt / decrypt.
  const bfv::PolyMulEngine engine(ctx, backend,
                                  backend == bfv::PolyMulBackend::kApproxFft
                                      ? std::optional<fft::FxpFftConfig>(approx_cfg)
                                      : std::nullopt);
  hemath::Sampler sampler(mix64(n + 1));
  bfv::KeyGenerator keygen(ctx, sampler);
  const bfv::SecretKey sk = keygen.secret_key();
  const bfv::PublicKey pk = keygen.public_key(sk);
  const bfv::PreparedPublicKey ppk = bfv::prepare_public_key(ctx, pk);
  bfv::Encryptor encryptor(ctx, sampler);
  const bfv::Decryptor decryptor(ctx, sk);
  const bfv::Plaintext wpt = ctx.encode_signed(wcoeffs);
  const bfv::Plaintext apt = ctx.encode_signed(acoeffs);
  bfv::Ciphertext ct;
  const auto enc_us =
      repeat_us(tr, "bfv.encrypt", root.id(), kReps, [&] { ct = encryptor.encrypt(apt, ppk); });
  const auto dec_us =
      repeat_us(tr, "bfv.decrypt", root.id(), kReps, [&] { (void)decryptor.decrypt(ct); });
  bfv::PlainSpectrum ps;
  const auto tp_us = repeat_us(tr, "bfv.transform_plain", root.id(), kReps,
                               [&] { ps = engine.transform_plain(wpt); });
  bfv::CipherSpectrum cs;
  const auto tc_us = repeat_us(tr, "bfv.transform_cipher", root.id(), kReps,
                               [&] { cs = engine.transform_cipher_spectrum(ct.c0); });
  bfv::SpectralAccumulator acc;
  const auto ma_us = repeat_us(tr, "bfv.mul_acc", root.id(), kReps, [&] {
    acc = bfv::SpectralAccumulator{};
    engine.multiply_accumulate(cs, ps, acc);
  });
  const auto fin_us =
      repeat_us(tr, "bfv.finalize", root.id(), kReps, [&] { (void)engine.finalize(acc); });
  rep.put("bfv.transform_plain_us", privbench::median(tp_us), "us");
  rep.put("bfv.transform_cipher_us", privbench::median(tc_us), "us");
  rep.put("bfv.mul_acc_us", privbench::median(ma_us), "us");
  rep.put("bfv.finalize_us", privbench::median(fin_us), "us");
  rep.put("bfv.encrypt_us", privbench::median(enc_us), "us");
  rep.put("bfv.decrypt_us", privbench::median(dec_us), "us");

  // sparsefft: planner cost of this unit's weight pattern (folded onto the
  // N/2-point FFT input), against the dense transform. Counts only: no
  // request path runs the sparse executor yet.
  {
    const std::size_t m = n / 2;
    const sparsefft::SparsityPattern pattern = enc.weight_pattern();
    std::vector<std::size_t> folded;
    for (const std::size_t pos : pattern.nonzeros()) folded.push_back(pos % m);
    std::sort(folded.begin(), folded.end());
    folded.erase(std::unique(folded.begin(), folded.end()), folded.end());
    const sparsefft::SparseFftPlan plan(m, sparsefft::SparsityPattern(m, std::move(folded)));
    const auto dense = sparsefft::SparseFftPlan::dense_cost(m);
    rep.put("sparsefft.mults_dense", static_cast<double>(dense.complex_mults), "count");
    rep.put("sparsefft.mults_merged", static_cast<double>(plan.cost().merged_mults), "count");
  }

  // wire: one request frame and one result frame at this workload's shapes.
  {
    wire::SubmitBody sb;
    sb.plan_id = 0;
    sb.stream = 1;
    sb.x = x;
    wire::ResultBody rb;
    rb.ok = true;
    rb.result = sample_result;
    wire::Bytes req_frame, res_frame;
    const auto enc_wire = repeat_us(tr, "wire.encode", root.id(), kReps, [&] {
      wire::ByteWriter a, b;
      wire::encode(sb, a);
      wire::encode(rb, b);
      req_frame = wire::encode_frame({wire::MsgType::kSubmit, 1, a.take()});
      res_frame = wire::encode_frame({wire::MsgType::kResult, 1, b.take()});
    });
    const auto dec_wire = repeat_us(tr, "wire.decode", root.id(), kReps, [&] {
      const wire::Frame fq = wire::decode_frame(req_frame);
      const wire::Frame fr = wire::decode_frame(res_frame);
      wire::ByteReader ra(fq.body), rr(fr.body);
      (void)wire::decode_submit(ra);
      (void)wire::decode_result(rr);
    });
    rep.put("wire.req_frame_bytes", static_cast<double>(req_frame.size()), "bytes");
    rep.put("wire.result_frame_bytes", static_cast<double>(res_frame.size()), "bytes");
    rep.put("wire.encode_us", privbench::median(enc_wire), "us");
    rep.put("wire.decode_us", privbench::median(dec_wire), "us");
  }
}

/// Plan-level setup costs of the given layers, measured directly:
/// ConvRunner::prepare (weight spectra) and the plan certificate.
void drive_plan_setup(Report& rep, Tracer& tr, protocol::HConvProtocol& proto,
                      bfv::PolyMulBackend backend, const std::optional<fft::FxpFftConfig>& cfg,
                      const std::vector<std::pair<tensor::Shape3, const tensor::NetLayer*>>& layers,
                      std::vector<std::shared_ptr<const protocol::ConvPlan>>* plans_out) {
  Scoped root(tr, "drive.plan_setup");
  protocol::ConvRunner runner(proto);
  double prepare_ms = 0, certify_ms = 0;
  for (const auto& [shape, layer] : layers) {
    Timer t;
    std::shared_ptr<const protocol::ConvPlan> plan;
    {
      Scoped s(tr, "protocol.prepare", root.id());
      plan = runner.prepare(shape.c, shape.h, shape.w, layer->weights, layer->stride, layer->pad);
    }
    prepare_ms += t.ms();
    Timer c;
    {
      Scoped s(tr, "analysis.certify", root.id());
      (void)protocol::certify_plan(proto.context().params(), backend, cfg, *plan);
    }
    certify_ms += c.ms();
    if (plans_out != nullptr) plans_out->push_back(plan);
  }
  rep.put("protocol.prepare_ms", prepare_ms, "ms");
  rep.put("analysis.certify_ms", certify_ms, "ms");
}

void put_phases(Report& rep, const PhaseSamples& ps) {
  rep.put("protocol.share_encode_ms", privbench::median(ps.share_encode), "ms");
  rep.put("protocol.encrypt_ms", privbench::median(ps.encrypt), "ms");
  rep.put("protocol.weight_transform_ms", privbench::median(ps.weight_transform), "ms");
  rep.put("protocol.ct_mul_ms", privbench::median(ps.ct_mul), "ms");
  rep.put("protocol.mask_ms", privbench::median(ps.mask), "ms");
  rep.put("protocol.decrypt_ms", privbench::median(ps.decrypt), "ms");
  rep.put("protocol.phase_sum_ms", privbench::median(ps.sum), "ms");
  // Op counts are exact per request (sequential drive); take the first.
  const UnitTotals& t = ps.totals.front();
  rep.put("protocol.units_per_req", static_cast<double>(t.units), "count");
  rep.put("protocol.bytes_c2s_per_req", static_cast<double>(t.profile.bytes_client_to_server),
          "bytes");
  rep.put("protocol.bytes_s2c_per_req", static_cast<double>(t.profile.bytes_server_to_client),
          "bytes");
  rep.put("bfv.plain_transforms_per_req", static_cast<double>(t.ops.plain_transforms), "count");
  rep.put("bfv.cipher_transforms_per_req", static_cast<double>(t.ops.cipher_transforms), "count");
  rep.put("bfv.inverse_transforms_per_req", static_cast<double>(t.ops.inverse_transforms), "count");
  rep.put("bfv.pointwise_per_req", static_cast<double>(t.ops.pointwise_products), "count");
}

/// Per-layer metrics of a layer the workload does not run: reported as 0
/// so every traced run carries the full metric set, and listed on stdout.
void not_measured(Report& rep, std::initializer_list<std::pair<const char*, const char*>> names) {
  std::string list;
  for (const auto& [name, unit] : names) {
    rep.put(name, 0.0, unit);
    list += std::string(list.empty() ? "" : ", ") + name;
  }
  std::printf("# not run on this workload (reported as 0): %s\n", list.c_str());
}

void server_not_measured(Report& rep) {
  not_measured(rep, {{"serve.queue_wait_ms_p50", "ms"}, {"serve.queue_wait_ms_p95", "ms"},
                     {"serve.service_ms_p50", "ms"}, {"serve.batch_mean", "count"},
                     {"serve.rejected", "count"}});
}

void open_loop_not_measured(Report& rep) {
  not_measured(rep, {{"serve.open_lat_p50_ms", "ms"}, {"serve.open_lat_p95_ms", "ms"},
                     {"gen.lateness_p99_ms", "ms"}, {"gen.backlog_end", "count"}});
}

/// The phase-accounting check holds only where the phases are the whole
/// request (hconv-cold: one client, no queue).
void accounting_not_measured(Report& rep) {
  not_measured(rep, {{"protocol.accounting_error_frac", "frac"}});
}

void shard_not_measured(Report& rep) {
  not_measured(rep, {{"shard.round_trip_ms_p50", "ms"}, {"shard.worker_queue_wait_ms_p50", "ms"},
                     {"shard.worker_service_ms_p50", "ms"}, {"shard.respawns", "count"},
                     {"shard.failed_over", "count"}});
}

/// resnet18_like: stem, 2 x 3 layers per stage x 2 stages, downsample, FC.
constexpr std::size_t kResnetLayers = 15;

void sessions_not_measured(Report& rep) {
  not_measured(rep, {{"serve.program_build_ms", "ms"}, {"tensor.cleartext_ms_per_session", "ms"}});
  for (std::size_t k = 0; k < kResnetLayers; ++k) {
    char name[64];
    std::snprintf(name, sizeof name, "serve.session.layer%02zu_ms_p50", k);
    rep.put(name, 0.0, "ms");
  }
}

double hist_ms(const serve::LatencyHistogram& h, double p) { return h.quantile_ns(p) * 1e-6; }

void put_server_metrics(Report& rep, const serve::ServerMetrics& m) {
  rep.put("serve.queue_wait_ms_p50", hist_ms(m.queue_wait, 0.5), "ms");
  rep.put("serve.queue_wait_ms_p95", hist_ms(m.queue_wait, 0.95), "ms");
  rep.put("serve.service_ms_p50", hist_ms(m.service, 0.5), "ms");
  std::uint64_t batches = 0, requests = 0;
  for (const auto& [id, s] : m.plan_batches()) {
    batches += s.batches;
    requests += s.requests;
  }
  rep.put("serve.batch_mean",
          batches == 0 ? 0.0 : static_cast<double>(requests) / static_cast<double>(batches),
          "count");
  rep.put("serve.rejected",
          static_cast<double>(m.rejected_queue_full.value() + m.rejected_draining.value()),
          "count");
}

// ---------------------------------------------------------------------------
// Workload interface

struct Context {
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

struct SetupCosts {
  double setup_ms = 0;
  double register_plan_ms = 0;
  double program_build_ms = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the system under test from scratch; returns the timed costs.
  virtual SetupCosts setup() = 0;
  /// Drop the system (between setup repetitions).
  virtual void teardown() = 0;
  /// Run for `seconds` with a fresh schedule derived from `seed`; records
  /// spans into `tr` (disabled tracer = untraced).
  virtual RunStats run(std::uint64_t seed, double seconds, Tracer& tr) = 0;
  /// Check every completed result and the seeded serial sample; prints
  /// mismatches. Outcomes of wrong results are rewritten to kWrong.
  virtual bool verify(std::uint64_t seed, RunStats& st) = 0;
  /// Traced run only: per-layer metrics from the metrics objects and the
  /// direct layer drive.
  virtual void layers(Report& rep, Tracer& tr, std::uint64_t seed, double lat_p50_ms) = 0;

  /// Median set-up costs over the repetitions (set before the runs).
  SetupCosts setup_costs;
};

// ---------------------------------------------------------------------------
// hconv-cold

class HconvCold : public Workload {
 public:
  SetupCosts setup() override {
    Timer t;
    ctx_ = std::make_unique<bfv::BfvContext>(params_4096());
    proto_ = std::make_unique<protocol::HConvProtocol>(*ctx_, bfv::PolyMulBackend::kNtt,
                                                       std::nullopt, kProtocolSeed);
    runner_ = std::make_unique<protocol::ConvRunner>(*proto_);
    return {t.ms(), 0, 0};
  }
  void teardown() override {
    runner_.reset();
    proto_.reset();
    ctx_.reset();
  }

  /// Request i's inputs: distinct weights and activation per request.
  static std::pair<tensor::Tensor3, tensor::Tensor4> inputs(std::uint64_t seed, std::size_t i) {
    std::mt19937_64 rng(mix64(seed * 1000003ULL + i));
    tensor::Tensor4 w = tensor::random_weights(kFig1.out_c, kFig1.in_c, kFig1.k, 4, rng);
    tensor::Tensor3 x = tensor::random_activations(kFig1.in_c, kFig1.h, kFig1.w, 4, rng);
    return {std::move(x), std::move(w)};
  }

  RunStats run(std::uint64_t seed, double seconds, Tracer& tr) override {
    RunStats st;
    const u64 t = ctx_->params().t;
    const double cpu0 = self_cpu_ms();
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    for (std::size_t i = 0; Clock::now() < end; ++i) {
      const auto [x, w] = inputs(seed, i);
      RequestRecord r;
      r.due_ns = r.sent_ns = to_ns(Clock::now());
      Scoped span(tr, "request", 0, i + 1);
      std::uint64_t fp = 0;
      try {
        const std::uint64_t run_span = tr.begin("convrunner.run", span.id(), i + 1);
        const protocol::ConvRunnerResult res =
            runner_->run(x, w, kFig1.stride, kFig1.pad, static_cast<std::uint64_t>(i) << 32);
        r.done_ns = to_ns(Clock::now());
        tr.end(run_span);
        r.outcome = Outcome::kOk;
        fp = privbench::fingerprint(res.reconstruct(t).data());
      } catch (const std::exception& e) {
        r.done_ns = to_ns(Clock::now());
        r.outcome = Outcome::kFailed;
        std::fprintf(stderr, "hconv-cold: request %zu failed: %s\n", i, e.what());
      }
      st.records.push_back(r);
      st.fingerprints.push_back(fp);
    }
    st.cpu_ms = self_cpu_ms() - cpu0;
    close_window(st);
    return st;
  }

  bool verify(std::uint64_t seed, RunStats& st) override {
    bool ok = true;
    for (std::size_t i = 0; i < st.records.size(); ++i) {
      if (st.records[i].outcome != Outcome::kOk) continue;
      const auto [x, w] = inputs(seed, i);
      const tensor::Tensor3 want = tensor::conv2d(x, w, {kFig1.stride, kFig1.pad});
      if (privbench::fingerprint(want.data()) != st.fingerprints[i]) {
        st.records[i].outcome = Outcome::kWrong;
        std::fprintf(stderr, "hconv-cold: request %zu differs from cleartext conv\n", i);
        ok = false;
      }
    }
    return ok;
  }

  void layers(Report& rep, Tracer& tr, std::uint64_t, double lat_p50_ms) override {
    const fft::FxpFftConfig cfg =
        core::high_accuracy_approx_config(ctx_->params().n, ctx_->params().t);
    const std::uint64_t seed = mix64(0xD21FEULL);
    // Protocol phases of complete requests, unit by unit (no plan: weight
    // transforms are part of every request). The unit drive and the
    // ConvRunner calls run in separate loops: like the workload, each call
    // then meets freshly generated inputs instead of a warm repeat.
    PhaseSamples ps;
    protocol::ConvRunnerResult sample;
    constexpr std::size_t kRequests = 12;
    for (std::size_t i = 0; i < kRequests; ++i) {
      const auto [x, w] = inputs(seed, i);
      Scoped req(tr, "drive.request", 0, i + 1);
      UnitTotals tot;
      drive_units(*proto_, nullptr, x, w, kFig1.stride, kFig1.pad,
                  static_cast<std::uint64_t>(i) << 32, tr, req.id(), i + 1, tot);
      ps.add(tot);
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
      const auto [x, w] = inputs(seed, kRequests + i);
      Scoped s(tr, "convrunner.run", 0, kRequests + i + 1);
      sample = runner_->run(x, w, kFig1.stride, kFig1.pad, static_cast<std::uint64_t>(i) << 32);
    }
    put_phases(rep, ps);
    // The phases are the whole request on this path (one client, no queue),
    // so their sum must account for the untraced median latency; a run
    // where it does not is not reported.
    const double ratio = privbench::median(ps.sum) / lat_p50_ms;
    const bool accounted = std::fabs(ratio - 1.0) <= kAccountingTolerance;
    std::printf("# accounting: protocol phase sum / untraced lat_p50 = %.3f "
                "(tolerance %.2f..%.2f): %s\n",
                ratio, 1.0 - kAccountingTolerance, 1.0 + kAccountingTolerance,
                accounted ? "accounted" : "NOT accounted");
    if (!accounted) {
      throw std::runtime_error("protocol phases do not account for hconv-cold's latency");
    }
    rep.put("protocol.accounting_error_frac", std::fabs(ratio - 1.0), "frac");
    const auto spans = tr.spans();
    const auto self = privbench::self_times_ns(spans);
    rep.put("protocol.runner_ms_per_req",
            privbench::median(privbench::self_ms_of(spans, self, "convrunner.run")), "ms");
    const auto [x, w] = inputs(seed, 0);
    tensor::NetLayer layer;
    layer.weights = w;
    layer.stride = kFig1.stride;
    layer.pad = kFig1.pad;
    drive_plan_setup(rep, tr, *proto_, bfv::PolyMulBackend::kNtt, std::nullopt,
                     {{tensor::Shape3{kFig1.in_c, kFig1.h, kFig1.w}, &layer}}, nullptr);
    drive_kernels(rep, tr, *ctx_, bfv::PolyMulBackend::kNtt, cfg, x, w, kFig1.stride, kFig1.pad,
                  sample);
    server_not_measured(rep);
    not_measured(rep, {{"serve.register_plan_ms", "ms"}});
    sessions_not_measured(rep);
    shard_not_measured(rep);
    open_loop_not_measured(rep);
  }

 private:
  std::unique_ptr<bfv::BfvContext> ctx_;
  std::unique_ptr<protocol::HConvProtocol> proto_;
  std::unique_ptr<protocol::ConvRunner> runner_;
};

// ---------------------------------------------------------------------------
// serve-clients' plan mix and its serial reference.

struct MixModel {
  std::vector<tensor::Tensor4> weights = mix_weights();
  bfv::BfvParams params = params_4096();
  fft::FxpFftConfig cfg = core::high_accuracy_approx_config(params.n, params.t);
};

/// Every completed request against the cleartext conv; the seeded sample
/// (full shares kept) bit-for-bit against a serial ConvRunner::run with the
/// request's stream << 32, computed outside the timed window. Request i
/// carried pool[which[i]] on stream i.
bool verify_mix(const char* name, const MixModel& model, const bfv::BfvContext& ctx,
                const std::vector<Arrival>& pool, const std::vector<std::size_t>& which,
                RunStats& st,
                const std::vector<std::pair<std::size_t, protocol::ConvRunnerResult>>& kept) {
  bool ok = true;
  std::vector<std::optional<std::uint64_t>> expected(pool.size());
  for (std::size_t i = 0; i < st.records.size(); ++i) {
    if (st.records[i].outcome != Outcome::kOk) continue;
    const Arrival& a = pool[which[i]];
    if (!expected[which[i]]) {
      const LayerShape& l = kMix[a.plan];
      const tensor::Tensor3 want = tensor::conv2d(a.x, model.weights[a.plan], {l.stride, l.pad});
      expected[which[i]] = privbench::fingerprint(want.data());
    }
    if (*expected[which[i]] != st.fingerprints[i]) {
      st.records[i].outcome = Outcome::kWrong;
      std::fprintf(stderr, "%s: request %zu differs from cleartext conv\n", name, i);
      ok = false;
    }
  }
  protocol::HConvProtocol proto(ctx, bfv::PolyMulBackend::kApproxFft, model.cfg, kProtocolSeed);
  protocol::ConvRunner runner(proto);
  for (const auto& [i, res] : kept) {
    const Arrival& a = pool[which[i]];
    const LayerShape& l = kMix[a.plan];
    const protocol::ConvRunnerResult ref =
        runner.run(a.x, model.weights[a.plan], l.stride, l.pad,
                   static_cast<std::uint64_t>(i) << 32);
    if (ref.client_share.data() != res.client_share.data() ||
        ref.server_share.data() != res.server_share.data()) {
      st.records[i].outcome = Outcome::kWrong;
      std::fprintf(stderr, "%s: request %zu not bit-identical to the serial runner\n", name, i);
      ok = false;
    }
  }
  std::printf("# %s: checked %zu results vs cleartext, %zu bit-identical vs serial runner\n", name,
              st.records.size(), kept.size());
  return ok;
}

/// Sharded serving, driven directly with serve-clients' plans and sampled
/// requests: a ShardRouter with two forked single-threaded workers (no
/// dwell), one request at a time, so a round trip is wire codecs + socket
/// hops + the worker's service. Results must be bit-identical to the
/// in-process ConvRunner::run_batch results (`reference`).
void drive_shard(Report& rep, Tracer& tr, const MixModel& model, const std::vector<Arrival>& sample,
                 const std::vector<protocol::ConvRunnerResult>& reference) {
  Scoped root(tr, "drive.shard");
  shard::RouterOptions opts;
  opts.shards = 2;
  opts.certify = serve::CertifyPolicy::kEnforce;
  opts.worker_max_batch = 8;
  opts.worker_dwell_ns = 0;
  shard::ShardRouter router(opts);
  std::vector<shard::ShardPlanId> plans;
  for (std::size_t p = 0; p < kMixPlans; ++p) {
    wire::PlanSpecWire spec;
    spec.params = model.params;
    spec.backend = bfv::PolyMulBackend::kApproxFft;
    spec.approx_config = model.cfg;
    spec.protocol_seed = kProtocolSeed;
    spec.stride = kMix[p].stride;
    spec.pad = kMix[p].pad;
    spec.in_h = kMix[p].h;
    spec.in_w = kMix[p].w;
    spec.weights = model.weights[p];
    plans.push_back(router.register_plan(spec));
  }
  std::vector<double> round_trip;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    shard::ShardSubmitOptions so;
    so.stream = i;
    Timer t;
    shard::ShardFuture f;
    {
      Scoped s(tr, "shard.round_trip", root.id(), i + 1);
      f = router.submit(plans[sample[i].plan], sample[i].x, so);
      f.wait();
    }
    round_trip.push_back(t.ms());
    if (f.state() != shard::ShardRequestState::kDone ||
        f.result().client_share.data() != reference[i].client_share.data() ||
        f.result().server_share.data() != reference[i].server_share.data()) {
      std::fprintf(stderr, "serve-clients: sharded request %zu not bit-identical to run_batch\n",
                   i);
      rep.correct = false;
    }
  }
  router.drain();
  // The busiest worker's own ConvServer metrics.
  double queue_wait = 0, service = 0, busiest = -1;
  for (std::size_t s = 0; s < router.shards(); ++s) {
    const std::string js = router.worker_metrics_json(s);
    const double done = serve::json_number_at(js, "\"counters\"", "completed");
    if (std::isfinite(done) && done > busiest) {
      busiest = done;
      queue_wait = serve::json_number_at(js, "\"queue_wait\"", "p50") * 1e-6;
      service = serve::json_number_at(js, "\"service\"", "p50") * 1e-6;
    }
  }
  rep.put("shard.round_trip_ms_p50", privbench::median(round_trip), "ms");
  rep.put("shard.worker_queue_wait_ms_p50", queue_wait, "ms");
  rep.put("shard.worker_service_ms_p50", service, "ms");
  rep.put("shard.respawns", static_cast<double>(router.metrics().respawns.value()), "count");
  rep.put("shard.failed_over", static_cast<double>(router.metrics().failed_over.value()), "count");
}

/// Direct layer drive of serve-clients: local plans of the
/// mix, protocol phases of sampled requests through their prepared spectra,
/// ConvRunner::run_batch, and the kernels at the dominant plan's shape.
void drive_mix_layers(Report& rep, Tracer& tr, const MixModel& model,
                      const bfv::BfvContext& ctx) {
  protocol::HConvProtocol proto(ctx, bfv::PolyMulBackend::kApproxFft, model.cfg, kProtocolSeed);
  std::vector<tensor::NetLayer> layers(kMixPlans);
  std::vector<std::pair<tensor::Shape3, const tensor::NetLayer*>> specs;
  for (std::size_t p = 0; p < kMixPlans; ++p) {
    layers[p].weights = model.weights[p];
    layers[p].stride = kMix[p].stride;
    layers[p].pad = kMix[p].pad;
    specs.push_back({tensor::Shape3{kMix[p].in_c, kMix[p].h, kMix[p].w}, &layers[p]});
  }
  std::vector<std::shared_ptr<const protocol::ConvPlan>> plans;
  drive_plan_setup(rep, tr, proto, bfv::PolyMulBackend::kApproxFft, model.cfg, specs, &plans);

  // A fixed sample of the traffic mix: requests weighted like the schedule.
  const std::vector<Arrival> all = make_schedule(mix64(0xD21FEULL), 0.5, kOpenRateRps);
  const std::vector<Arrival> sample(all.begin(),
                                    all.begin() + std::min<std::size_t>(all.size(), 12));
  PhaseSamples ps;
  protocol::ConvRunner runner(proto);
  std::vector<std::vector<tensor::Tensor3>> by_plan(kMixPlans);
  std::vector<std::vector<std::uint64_t>> streams(kMixPlans);
  std::vector<std::vector<std::size_t>> index(kMixPlans);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Arrival& a = sample[i];
    Scoped req(tr, "drive.request", 0, i + 1);
    UnitTotals tot;
    drive_units(proto, plans[a.plan].get(), a.x, model.weights[a.plan], kMix[a.plan].stride,
                kMix[a.plan].pad, static_cast<std::uint64_t>(i) << 32, tr, req.id(), i + 1, tot);
    ps.add(tot);
    by_plan[a.plan].push_back(a.x);
    streams[a.plan].push_back(static_cast<std::uint64_t>(i) << 32);
    index[a.plan].push_back(i);
  }
  put_phases(rep, ps);

  // ConvRunner::run_batch per plan: the call the server's dispatch drains
  // into. Its results are checked against the cleartext conv and kept as
  // the bit-identity reference for the sharded drive below.
  std::vector<double> per_req;
  std::vector<protocol::ConvRunnerResult> reference(sample.size());
  for (std::size_t p = 0; p < kMixPlans; ++p) {
    if (by_plan[p].empty()) continue;
    Timer t;
    std::vector<protocol::ConvRunnerResult> rs;
    {
      Scoped s(tr, "convrunner.run_batch", 0, 0);
      rs = runner.run_batch(by_plan[p], *plans[p], streams[p]);
    }
    per_req.push_back(t.ms() / static_cast<double>(rs.size()));
    for (std::size_t j = 0; j < rs.size(); ++j) {
      const tensor::Tensor3 want =
          tensor::conv2d(by_plan[p][j], model.weights[p], {kMix[p].stride, kMix[p].pad});
      if (rs[j].reconstruct(model.params.t).data() != want.data()) {
        std::fprintf(stderr, "serve-clients: run_batch result %zu differs from cleartext conv\n",
                     index[p][j]);
        rep.correct = false;
      }
      reference[index[p][j]] = std::move(rs[j]);
    }
  }
  rep.put("protocol.runner_ms_per_req", privbench::median(per_req), "ms");
  drive_kernels(rep, tr, ctx, bfv::PolyMulBackend::kApproxFft, model.cfg, by_plan[0].front(),
                model.weights[0], kMix[0].stride, kMix[0].pad, reference[index[0].front()]);
  drive_shard(rep, tr, model, sample, reference);
}

/// Latency bookkeeping of the open-loop generator.
struct OpenState {
  std::vector<RequestRecord> records;
  std::vector<std::uint64_t> fingerprints;
  std::vector<char> keep;  // sampled for the serial check
  std::vector<std::pair<std::size_t, protocol::ConvRunnerResult>> kept;
  std::mutex kept_mu;
  std::atomic<std::size_t> finished{0};
};

Clock::time_point due_time(Clock::time_point t0, const Arrival& a) {
  return t0 +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.offset_s));
}

// ---------------------------------------------------------------------------
// serve-clients

class ServeClients : public Workload {
 public:
  ServeClients() { check_mix(); }

  SetupCosts setup() override {
    Timer t;
    ctx_ = std::make_unique<bfv::BfvContext>(model_.params);
    serve::ServerOptions opts;
    opts.max_queue = 1024;
    opts.max_batch = 8;
    opts.dispatchers = 2;
    opts.certify = serve::CertifyPolicy::kEnforce;  // every plan must certify as proven
    server_ = std::make_unique<serve::ConvServer>(opts);
    Timer reg;
    plans_.clear();
    for (std::size_t p = 0; p < kMixPlans; ++p) {
      serve::PlanSpec spec;
      spec.ctx = ctx_.get();
      spec.backend = bfv::PolyMulBackend::kApproxFft;
      spec.approx_config = model_.cfg;
      spec.protocol_seed = kProtocolSeed;
      spec.weights = model_.weights[p];
      spec.stride = kMix[p].stride;
      spec.pad = kMix[p].pad;
      spec.in_h = kMix[p].h;
      spec.in_w = kMix[p].w;
      plans_.push_back(server_->register_plan(spec));
    }
    return {t.ms(), reg.ms(), 0};
  }
  void teardown() override {
    server_.reset();
    ctx_.reset();
  }

  /// Closed loop: kClients clients, each sending its next request as soon
  /// as its previous one completes, polled from the generator thread. The
  /// requests cycle through a seeded pool that follows the plan mix.
  RunStats run(std::uint64_t seed, double seconds, Tracer& tr) override {
    pool_ = make_schedule(seed, 1.0, static_cast<double>(kPoolSize));
    which_.clear();
    kept_.clear();
    const std::vector<std::size_t> sampled =
        sample_indices(seed, privbench::min_samples_for(0.95), kSampleChecks);
    const u64 t = model_.params.t;
    RunStats st;
    struct Live {
      std::size_t i;
      serve::ConvFuture f;
    };
    std::vector<Live> live;
    std::size_t next = 0;
    auto start_one = [&] {
      const std::size_t i = next++;
      const Arrival& a = pool_[i % pool_.size()];
      which_.push_back(i % pool_.size());
      RequestRecord r;
      serve::SubmitOptions so;
      so.stream = i;
      Scoped s(tr, "serve.submit", 0, i + 1);
      r.due_ns = r.sent_ns = to_ns(Clock::now());
      st.records.push_back(r);
      st.fingerprints.push_back(0);
      live.push_back({i, server_->submit(plans_[a.plan], a.x, so)});
    };
    const double cpu0 = self_cpu_ms();
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    for (std::size_t k = 0; k < kClients; ++k) start_one();
    while (!live.empty()) {
      for (std::size_t k = 0; k < live.size();) {
        if (!live[k].f.done()) {
          ++k;
          continue;
        }
        const std::size_t i = live[k].i;
        const serve::ConvFuture f = std::move(live[k].f);
        live[k] = std::move(live.back());
        live.pop_back();
        RequestRecord& r = st.records[i];
        r.done_ns = to_ns(Clock::now());
        r.outcome = outcome_of(f.state());
        if (r.outcome == Outcome::kOk) {
          st.fingerprints[i] = privbench::fingerprint(f.result().reconstruct(t).data());
          if (std::find(sampled.begin(), sampled.end(), i) != sampled.end()) {
            kept_.push_back({i, f.result()});
          }
        }
        tr.add("request", 0, i + 1, r.due_ns, r.done_ns);
        if (Clock::now() < end) start_one();
      }
      std::this_thread::sleep_for(kPollInterval);
    }
    st.cpu_ms = self_cpu_ms() - cpu0;
    close_window(st);
    return st;
  }

  bool verify(std::uint64_t, RunStats& st) override {
    return verify_mix("serve-clients", model_, *ctx_, pool_, which_, st, kept_);
  }

  void layers(Report& rep, Tracer& tr, std::uint64_t seed, double) override {
    rep.put("serve.register_plan_ms", setup_costs.register_plan_ms, "ms");
    open_segment(rep, seed);
    drive_mix_layers(rep, tr, model_, *ctx_);
    sessions_not_measured(rep);
    accounting_not_measured(rep);
  }

 private:
  static constexpr std::size_t kClients = 8;     // bench_serve's 8 sessions
  static constexpr std::size_t kPoolSize = 256;  // distinct requests per run

  static Outcome outcome_of(serve::RequestState s) {
    switch (s) {
      case serve::RequestState::kDone: return Outcome::kOk;
      case serve::RequestState::kRejected: return Outcome::kRejected;
      case serve::RequestState::kDeadlineExceeded: return Outcome::kDeadline;
      default: return Outcome::kFailed;
    }
  }

  /// Open loop on a fresh server: Poisson arrivals at kOpenRateRps from the
  /// generator thread, each request timed from when it was due. Reported as
  /// per-layer numbers (see the file comment for why). A generator that
  /// lags or a growing backlog makes the traced run fail without numbers.
  void open_segment(Report& rep, std::uint64_t seed) {
    teardown();
    setup();
    pool_ = make_schedule(mix64(seed ^ 0x09E4ULL), kOpenSeconds, kOpenRateRps);
    const std::size_t n = pool_.size();
    which_.resize(n);
    for (std::size_t i = 0; i < n; ++i) which_[i] = i;
    OpenState os;
    os.records.resize(n);
    os.fingerprints.resize(n);
    os.keep.assign(n, 0);
    for (const std::size_t i : sample_indices(seed, n, kSampleChecks)) os.keep[i] = 1;
    const u64 t = model_.params.t;
    RunStats st;
    st.open_loop = true;
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point due = due_time(t0, pool_[i]);
      std::this_thread::sleep_until(due);
      RequestRecord& r = os.records[i];
      r.due_ns = to_ns(due);
      st.backlog.push_back(static_cast<double>(i - os.finished.load(std::memory_order_acquire)));
      serve::SubmitOptions so;
      so.stream = i;
      r.sent_ns = to_ns(Clock::now());
      serve::ConvFuture f = server_->submit(plans_[pool_[i].plan], pool_[i].x, so);
      f.on_terminal([&os, f, i, t]() {
        RequestRecord& rec = os.records[i];
        rec.done_ns = to_ns(Clock::now());
        rec.outcome = outcome_of(f.state());
        if (rec.outcome == Outcome::kOk) {
          os.fingerprints[i] = privbench::fingerprint(f.result().reconstruct(t).data());
          if (os.keep[i]) {
            std::lock_guard<std::mutex> lock(os.kept_mu);
            os.kept.push_back({i, f.result()});
          }
        }
        os.finished.fetch_add(1, std::memory_order_release);
      });
    }
    const auto give_up = Clock::now() + std::chrono::duration<double>(kDrainTimeoutS);
    while (os.finished.load(std::memory_order_acquire) < n && Clock::now() < give_up) {
      std::this_thread::sleep_for(kPollInterval);
    }
    // Quiesce before `os` goes away: no callback may still be running.
    server_->drain();
    while (os.finished.load(std::memory_order_acquire) < n) {
      std::this_thread::sleep_for(kPollInterval);
    }
    st.records = os.records;
    st.fingerprints = os.fingerprints;
    close_window(st);
    if (!verify_mix("serve-clients open loop", model_, *ctx_, pool_, which_, st, os.kept)) {
      rep.correct = false;
    }
    std::vector<double> lat;
    const std::string why = summarize("open loop", st, lat);
    if (!why.empty()) {
      const std::string msg = "open-loop segment invalid: " + why;
      if (!rep.correct) throw WrongResult(msg + ", and it had wrong results");
      throw std::runtime_error(msg);
    }
    put_server_metrics(rep, server_->metrics());
    rep.put("serve.open_lat_p50_ms", privbench::percentile(lat, 0.5), "ms");
    rep.put("serve.open_lat_p95_ms", privbench::percentile(lat, 0.95), "ms");
    rep.put("gen.lateness_p99_ms",
            privbench::percentile(privbench::lateness_ms(st.records), 0.99), "ms");
    rep.put("gen.backlog_end", st.backlog.empty() ? 0.0 : st.backlog.back(), "count");
  }

  MixModel model_;
  std::unique_ptr<bfv::BfvContext> ctx_;
  std::unique_ptr<serve::ConvServer> server_;
  std::vector<serve::PlanId> plans_;
  std::vector<Arrival> pool_;
  std::vector<std::size_t> which_;
  std::vector<std::pair<std::size_t, protocol::ConvRunnerResult>> kept_;
};

// ---------------------------------------------------------------------------
// resnet-sessions

class ResnetSessions : public Workload {
 public:
  ResnetSessions() : stack_(resnet_stack()), params_(params_2048()),
                     cfg_(core::high_accuracy_approx_config(params_.n, params_.t)) {
    if (stack_.layers.size() != kResnetLayers) {
      throw std::logic_error("resnet18_like layer count changed");
    }
  }

  SetupCosts setup() override {
    Timer t;
    ctx_ = std::make_unique<bfv::BfvContext>(params_);
    serve::ServerOptions opts;
    opts.max_queue = 1024;
    opts.max_batch = kSessionsInFlight;
    opts.dispatchers = 2;
    opts.certify = serve::CertifyPolicy::kEnforce;
    server_ = std::make_unique<serve::ConvServer>(opts);
    net_ = std::make_unique<serve::NetworkServer>(*server_);
    // Register each conv layer's plan first (timed on its own), then lower
    // the program: build() finds every plan already registered.
    Timer reg;
    tensor::Shape3 shape = kInput;
    for (const tensor::NetLayer& l : stack_.layers) {
      if (l.kind == tensor::NetLayer::Kind::kConv) {
        serve::PlanSpec spec;
        spec.ctx = ctx_.get();
        spec.backend = bfv::PolyMulBackend::kApproxFft;
        spec.approx_config = cfg_;
        spec.protocol_seed = kProtocolSeed;
        spec.weights = l.weights;
        spec.stride = l.stride;
        spec.pad = l.pad;
        spec.in_h = shape.h;
        spec.in_w = shape.w;
        server_->register_plan(spec);
      }
      shape = tensor::LayerStack::layer_output_shape(shape, l);
    }
    const double reg_ms = reg.ms();
    Timer build;
    program_ = std::make_shared<const serve::NetworkProgram>(serve::NetworkProgram::build(
        *server_, stack_, *ctx_, bfv::PolyMulBackend::kApproxFft, cfg_, kProtocolSeed, kInput));
    return {t.ms(), reg_ms, build.ms()};
  }
  void teardown() override {
    program_.reset();
    net_.reset();
    server_.reset();
    ctx_.reset();
  }

  RunStats run(std::uint64_t seed, double seconds, Tracer& tr) override {
    // Inputs for more sessions than can finish, generated before timing.
    std::mt19937_64 rng(mix64(seed ^ 0x4E57ULL));
    inputs_.clear();
    const std::size_t pool = static_cast<std::size_t>(seconds * 200.0) + 64;
    for (std::size_t i = 0; i < pool; ++i) {
      inputs_.push_back(tensor::random_activations(kInput.c, kInput.h, kInput.w, 4, rng));
    }
    base_ = next_base_;
    RunStats st;
    features_.clear();
    logits_.clear();
    struct Live {
      std::size_t i;
      serve::NetworkSession s;
      std::uint64_t span;
    };
    std::vector<Live> live;
    const double cpu0 = self_cpu_ms();
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    std::size_t next = 0;
    auto start_one = [&] {
      if (next >= inputs_.size()) throw std::runtime_error("resnet-sessions: input pool exhausted");
      RequestRecord r;
      r.due_ns = r.sent_ns = to_ns(Clock::now());
      st.records.push_back(r);
      st.fingerprints.push_back(0);
      features_.emplace_back();
      logits_.emplace_back();
      serve::SessionOptions so;
      so.stream_base = (base_ + next) * serve::kSessionStreamStride;
      const std::uint64_t span = tr.begin("session", 0, next + 1);
      live.push_back({next, net_->start(program_, inputs_[next], so), span});
      ++next;
    };
    for (std::size_t k = 0; k < kSessionsInFlight; ++k) start_one();
    while (!live.empty()) {
      for (std::size_t k = 0; k < live.size();) {
        if (!live[k].s.done()) {
          ++k;
          continue;
        }
        const std::size_t i = live[k].i;
        RequestRecord& r = st.records[i];
        r.done_ns = to_ns(Clock::now());
        tr.end(live[k].span);
        const serve::NetworkSession& s = live[k].s;
        if (s.state() == serve::SessionState::kCompleted) {
          r.outcome = Outcome::kOk;
          features_[i] = s.features();
          if (s.has_logits()) logits_[i] = s.logits();
        } else {
          r.outcome = s.state() == serve::SessionState::kRejected           ? Outcome::kRejected
                      : s.state() == serve::SessionState::kDeadlineExceeded ? Outcome::kDeadline
                                                                            : Outcome::kFailed;
          std::fprintf(stderr, "resnet-sessions: session %zu ended %s: %s\n", i,
                       serve::to_string(s.state()), s.error().c_str());
        }
        live[k] = std::move(live.back());
        live.pop_back();
        if (Clock::now() < end) start_one();
      }
      std::this_thread::sleep_for(kPollInterval);
    }
    st.cpu_ms = self_cpu_ms() - cpu0;
    next_base_ = base_ + next;
    close_window(st);
    return st;
  }

  bool verify(std::uint64_t seed, RunStats& st) override {
    bool ok = true;
    const auto ref = tensor::LayerStack::reference_executor();
    for (std::size_t i = 0; i < st.records.size(); ++i) {
      if (st.records[i].outcome != Outcome::kOk) continue;
      const tensor::NetworkResult want = stack_.forward(inputs_[i], ref);
      if (want.features.data() != features_[i].data() || want.logits != logits_[i]) {
        st.records[i].outcome = Outcome::kWrong;
        std::fprintf(stderr, "resnet-sessions: session %zu differs from the cleartext network\n",
                     i);
        ok = false;
      }
    }
    std::size_t checked = 0;
    for (const std::size_t i : sample_indices(seed, st.records.size(), 2)) {
      if (st.records[i].outcome != Outcome::kOk) continue;
      const tensor::NetworkResult ser = serve::run_network_serial(
          stack_, *ctx_, bfv::PolyMulBackend::kApproxFft, cfg_, kProtocolSeed, inputs_[i],
          (base_ + i) * serve::kSessionStreamStride);
      ++checked;
      if (ser.features.data() != features_[i].data() || ser.logits != logits_[i]) {
        st.records[i].outcome = Outcome::kWrong;
        std::fprintf(stderr,
                     "resnet-sessions: session %zu not bit-identical to run_network_serial\n", i);
        ok = false;
      }
    }
    std::printf("# resnet-sessions: checked %zu sessions vs cleartext network, "
                "%zu vs run_network_serial\n",
                st.records.size(), checked);
    return ok;
  }

  void layers(Report& rep, Tracer& tr, std::uint64_t, double) override {
    put_server_metrics(rep, server_->metrics());
    rep.put("serve.register_plan_ms", setup_costs.register_plan_ms, "ms");
    rep.put("serve.program_build_ms", setup_costs.program_build_ms, "ms");
    const serve::SessionMetrics& sm = net_->session_metrics();
    for (std::size_t k = 0; k < stack_.layers.size(); ++k) {
      char name[64];
      std::snprintf(name, sizeof name, "serve.session.layer%02zu_ms_p50", k);
      // layer_latency() creates a histogram on first use; only read ones
      // that exist.
      auto& metrics = const_cast<serve::SessionMetrics&>(sm);
      rep.put(name, k < sm.layer_count() ? hist_ms(metrics.layer_latency(k), 0.5) : 0.0, "ms");
    }

    protocol::HConvProtocol proto(*ctx_, bfv::PolyMulBackend::kApproxFft, cfg_, kProtocolSeed);
    std::vector<std::pair<tensor::Shape3, const tensor::NetLayer*>> convs;
    tensor::Shape3 shape = kInput;
    for (const tensor::NetLayer& l : stack_.layers) {
      if (l.kind == tensor::NetLayer::Kind::kConv) convs.push_back({shape, &l});
      shape = tensor::LayerStack::layer_output_shape(shape, l);
    }
    std::vector<std::shared_ptr<const protocol::ConvPlan>> plans;
    drive_plan_setup(rep, tr, proto, bfv::PolyMulBackend::kApproxFft, cfg_, convs, &plans);

    // Whole inferences through LayerStack::forward, each conv executed by
    // ConvRunner on its prepared plan and, separately, unit by unit for the
    // phase profile. The forward span's self time is the cleartext tensor
    // work (post-ops, residual joins, FC head).
    protocol::ConvRunner runner(proto);
    PhaseSamples ps;
    protocol::ConvRunnerResult sample;
    std::mt19937_64 rng(mix64(0xD21FEULL));
    constexpr std::size_t kSessions = 4;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const tensor::Tensor3 x = tensor::random_activations(kInput.c, kInput.h, kInput.w, 4, rng);
      Scoped req(tr, "drive.session", 0, s + 1);
      UnitTotals tot;
      std::size_t conv_index = 0;
      std::uint64_t fwd_span = 0;
      const tensor::LayerStack::ConvExec exec = [&](const tensor::Tensor3& in,
                                                    const tensor::Tensor4& w, std::size_t stride,
                                                    std::size_t pad) {
        const std::size_t k = conv_index++;
        const std::uint64_t base = (s * serve::kSessionStreamStride + k) << 32;
        drive_units(proto, plans[k].get(), in, w, stride, pad, base, tr, fwd_span, s + 1, tot);
        Scoped run(tr, "convrunner.run", fwd_span, s + 1);
        protocol::ConvRunnerResult r = runner.run(in, *plans[k], base);
        if (s == 0 && k == 0) sample = r;
        return r.reconstruct(params_.t);
      };
      tensor::NetworkResult got;
      {
        Scoped fwd(tr, "tensor.forward", req.id(), s + 1);
        fwd_span = fwd.id();
        got = stack_.forward(x, exec);
      }
      const tensor::NetworkResult want =
          stack_.forward(x, tensor::LayerStack::reference_executor());
      if (got.features.data() != want.features.data() || got.logits != want.logits) {
        std::fprintf(stderr,
                     "resnet-sessions: driven inference %zu differs from the cleartext network\n",
                     s);
        rep.correct = false;
      }
      ps.add(tot);
    }
    put_phases(rep, ps);
    const auto spans = tr.spans();
    const auto self = privbench::self_times_ns(spans);
    rep.put("tensor.cleartext_ms_per_session",
            privbench::median(privbench::self_ms_of(spans, self, "tensor.forward")), "ms");
    std::vector<double> per_session;
    for (std::size_t s = 0; s < kSessions; ++s) {
      double ms = 0;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == "convrunner.run" && spans[i].request == s + 1) {
          ms += static_cast<double>(self[i]) * 1e-6;
        }
      }
      per_session.push_back(ms);
    }
    rep.put("protocol.runner_ms_per_req", privbench::median(per_session), "ms");
    const tensor::NetLayer& stem = *convs.front().second;
    std::mt19937_64 xr(1);
    drive_kernels(rep, tr, *ctx_, bfv::PolyMulBackend::kApproxFft, cfg_,
                  tensor::random_activations(kInput.c, kInput.h, kInput.w, 4, xr), stem.weights,
                  stem.stride, stem.pad, sample);
    shard_not_measured(rep);
    open_loop_not_measured(rep);
    accounting_not_measured(rep);
  }

 private:
  static constexpr tensor::Shape3 kInput{3, 8, 8};
  tensor::LayerStack stack_;
  bfv::BfvParams params_;
  fft::FxpFftConfig cfg_;
  std::unique_ptr<bfv::BfvContext> ctx_;
  std::unique_ptr<serve::ConvServer> server_;
  std::unique_ptr<serve::NetworkServer> net_;
  std::shared_ptr<const serve::NetworkProgram> program_;
  std::vector<tensor::Tensor3> inputs_;
  std::vector<tensor::Tensor3> features_;
  std::vector<std::vector<tensor::i64>> logits_;
  std::uint64_t base_ = 0, next_base_ = 0;
};

// ---------------------------------------------------------------------------
// Entry point

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "hconv-cold") return std::make_unique<HconvCold>();
  if (name == "serve-clients") return std::make_unique<ServeClients>();
  if (name == "resnet-sessions") return std::make_unique<ResnetSessions>();
  return nullptr;
}

int run_main(const Context& c, const std::string& name) {
  std::unique_ptr<Workload> w = make_workload(name);
  if (!w) {
    std::fprintf(stderr, "privbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  // Set up repeatedly (the median is reported) and keep the last system.
  std::vector<double> setup_ms, reg_ms, build_ms;
  for (double spent = 0; setup_ms.size() < kSetupMinReps ||
                         (spent < kSetupMinMs && setup_ms.size() < kSetupMaxReps);) {
    if (!setup_ms.empty()) w->teardown();
    const SetupCosts sc = w->setup();
    setup_ms.push_back(sc.setup_ms);
    reg_ms.push_back(sc.register_plan_ms);
    build_ms.push_back(sc.program_build_ms);
    spent += sc.setup_ms;
  }
  const SetupCosts kept = {privbench::median(setup_ms), privbench::median(reg_ms),
                           privbench::median(build_ms)};
  w->setup_costs = kept;
  std::printf("# setup: %zu repetitions, median %.3f ms, min %.3f, max %.3f\n", setup_ms.size(),
              kept.setup_ms, *std::min_element(setup_ms.begin(), setup_ms.end()),
              *std::max_element(setup_ms.begin(), setup_ms.end()));

  Report rep;
  if (!c.trace) {
    Tracer off(false);
    RunStats st = w->run(c.seed, c.seconds, off);
    const bool correct = w->verify(c.seed, st);
    std::vector<double> lat;
    const std::string invalid = summarize(name.c_str(), st, lat);
    const privbench::Tally t = privbench::tally(st.records);
    rep.correct = correct;
    rep.attempted = t.attempted;
    rep.failed = t.bad();
    const double rss = self_peak_rss_mb();
    // Wrong results always exit 1; a run that cannot be reported otherwise
    // exits 3. Either way without numbers when they cannot be computed.
    if (!correct) {
      std::fprintf(stderr, "privbench: %llu wrong result(s)\n",
                   static_cast<unsigned long long>(t.wrong));
    }
    const std::size_t min_samples = privbench::min_samples_for(0.95);
    if (lat.size() < min_samples) {
      std::fprintf(stderr,
                   "privbench: only %zu correct completions (< %zu for p95): run too short\n",
                   lat.size(), min_samples);
      return correct ? 3 : 1;
    }
    if (!invalid.empty()) {
      std::fprintf(stderr, "privbench: run invalid: %s\n", invalid.c_str());
      return correct ? 3 : 1;
    }
    rep.put("setup_s", kept.setup_ms * 1e-3, "s");
    rep.put("lat_p50_ms", privbench::percentile(lat, 0.5), "ms");
    rep.put("lat_p95_ms", privbench::percentile(lat, 0.95), "ms");
    rep.put("throughput_rps", static_cast<double>(t.ok) / st.window_s, "1/s");
    rep.put("cpu_ms_per_req", st.cpu_ms / static_cast<double>(std::max<std::uint64_t>(t.ok, 1)),
            "ms");
    rep.put("rss_mb", rss, "MB");
    rep.put("ok_frac", 1.0 - t.fail_frac(), "frac");
    for (const auto& [k, m] : rep.metrics) {
      std::printf("# %-16s %14.4f %s\n", k.c_str(), m.value, m.unit.c_str());
    }
    std::printf("# fail_frac %.6f (samples %zu)\n", t.fail_frac(), lat.size());
  } else {
    // Untraced and traced halves back to back; the difference of their
    // medians is the tracing overhead.
    Tracer off(false);
    RunStats st_u = w->run(c.seed, c.seconds / 2, off);
    bool correct = w->verify(c.seed, st_u);
    std::vector<double> lat_u, lat_t;
    const std::string invalid_u = summarize("untraced half", st_u, lat_u);
    Tracer tr(true);
    RunStats st_t = w->run(mix64(c.seed), c.seconds / 2, tr);
    correct = w->verify(mix64(c.seed), st_t) && correct;
    const std::string invalid_t = summarize("traced half", st_t, lat_t);
    const double p50_u = privbench::percentile(lat_u, 0.5);
    const double p50_t = privbench::percentile(lat_t, 0.5);
    const privbench::Tally tu = privbench::tally(st_u.records), tt = privbench::tally(st_t.records);
    rep.correct = correct;
    rep.attempted = tu.attempted + tt.attempted;
    rep.failed = tu.bad() + tt.bad();
    if (!invalid_u.empty() || !invalid_t.empty()) {
      std::fprintf(stderr, "privbench: traced run invalid: %s%s\n", invalid_u.c_str(),
                   invalid_t.c_str());
      return correct ? 3 : 1;
    }
    w->layers(rep, tr, c.seed, p50_u);
    rep.put("trace.overhead_frac", p50_t / p50_u - 1.0, "frac");
    const auto spans = tr.spans();
    const auto self = privbench::self_times_ns(spans);
    if (!c.trace_out.empty()) {
      if (privbench::write_chrome_trace(c.trace_out, spans, self)) {
        std::printf("# wrote %zu spans to %s\n", spans.size(), c.trace_out.c_str());
      } else {
        std::fprintf(stderr, "privbench: cannot write %s\n", c.trace_out.c_str());
      }
    }
    for (const auto& [k, m] : rep.metrics) {
      std::printf("# %-40s %14.4f %s\n", k.c_str(), m.value, m.unit.c_str());
    }
  }
  print_report(rep);
  return rep.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Context c;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") c.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") c.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") c.trace = v == "1";
    else if (k == "--trace-out") c.trace_out = v;
    else {
      std::fprintf(stderr, "privbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (workload.empty() || !(c.seconds > 0)) {
    std::fprintf(stderr, "usage: privbench --workload W --seed N --seconds S --trace 0|1 "
                         "[--trace-out F]\n");
    return 2;
  }
  // Environment stamp: numbers from different machines or builds must not
  // be compared silently.
  std::printf("# env: nproc %u, simd %s, compiler %s, build %s\n",
              std::thread::hardware_concurrency(),
              hemath::simd::simd_level_name(hemath::simd::active_simd_level()), PRIVBENCH_COMPILER,
              PRIVBENCH_BUILD_TYPE);
#ifndef NDEBUG
  std::fprintf(stderr, "privbench: refusing to measure a build with assertions enabled\n");
  return 2;
#endif
  if (std::string(PRIVBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "privbench: refusing to measure a non-Release build\n");
    return 2;
  }
  try {
    return run_main(c, workload);
  } catch (const WrongResult& e) {
    std::fprintf(stderr, "privbench: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Set-up failures, invalid open-loop segments, an exhausted input pool,
    // an unaccounted phase sum: the run cannot be reported.
    std::fprintf(stderr, "privbench: %s\n", e.what());
    return 3;
  }
}
