#include "probes.h"

#include <sched.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "core/bytes.h"
#include "core/sha256.h"
#include "core/wal.h"
#include "flare/dxo.h"
#include "flare/secure_channel.h"
#include "flare/validator.h"
#include "measure.h"

namespace flbench {

namespace fl = cppflare::flare;
namespace core = cppflare::core;

namespace {

/// Median wall seconds of `op` over at least 5 and at most 200 repetitions,
/// stopping once 0.3 s have been spent.
double time_median(const std::function<void()>& op) {
  std::vector<double> samples;
  const std::int64_t budget_end = now_ns() + 300'000'000;
  while (samples.size() < 5 || (samples.size() < 200 && now_ns() < budget_end)) {
    const std::int64_t t0 = now_ns();
    op();
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(samples);
}

}  // namespace

std::vector<Metric> payload_probe(const cppflare::nn::StateDict& model) {
  fl::Dxo dxo(fl::DxoKind::kWeights, model);
  dxo.set_meta_int(fl::Dxo::kMetaNumSamples, 1);
  dxo.set_meta_int(fl::Dxo::kMetaRound, 0);
  core::ByteWriter writer;
  dxo.serialize(writer);
  const std::vector<std::uint8_t> payload = writer.take();
  const std::vector<std::uint8_t> secret(32, 0x5a);
  const std::vector<std::uint8_t> sealed = fl::seal("site-1", secret, 1, payload, "job");
  fl::UpdateValidator validator;
  validator.reset(model, 0);
  const double mb = static_cast<double>(payload.size()) / 1e6;

  volatile std::uint8_t sink = 0;
  std::vector<Metric> m;
  const double hmac_s = time_median([&] {
    sink = sink ^ core::hmac_sha256(secret, payload)[0];
  });
  m.push_back({"core.hmac_mb_per_s", mb / hmac_s, "MB/s", true,
               "payload " + std::to_string(payload.size()) + " bytes"});
  m.push_back({"flare.seal_s", time_median([&] {
                 sink = sink ^ fl::seal("site-1", secret, 2, payload, "job")[0];
               }), "s"});
  m.push_back({"flare.open_s", time_median([&] {
                 sink = sink ^ static_cast<std::uint8_t>(fl::open(sealed, secret).payload.size());
               }), "s"});
  m.push_back({"flare.dxo.serialize_s", time_median([&] {
                 core::ByteWriter w;
                 dxo.serialize(w);
                 sink = sink ^ static_cast<std::uint8_t>(w.size());
               }), "s"});
  m.push_back({"flare.dxo.deserialize_s", time_median([&] {
                 core::ByteReader r(payload);
                 sink = sink ^ static_cast<std::uint8_t>(fl::Dxo::deserialize(r).data().size());
               }), "s"});
  m.push_back({"flare.validator.score_s", time_median([&] {
                 double norm = 0.0;
                 sink = sink ^ static_cast<std::uint8_t>(validator.score("site-1", dxo, &norm).ok());
               }), "s"});
  return m;
}

Metric fsync_probe(const std::string& dir) {
  const std::filesystem::path path = std::filesystem::path(dir) / "fsync-probe.wal";
  std::filesystem::remove(path);
  std::vector<double> samples;
  {
    core::Wal wal(path.string(), core::WalSyncPolicy::kEveryRound);
    (void)wal.open_and_replay();
    const std::vector<std::uint8_t> record(256, 0x42);
    for (int i = 0; i < 30; ++i) {
      wal.append(record);
      const std::int64_t t0 = now_ns();
      wal.sync();
      samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }
  std::filesystem::remove(path);
  return {"core.wal.fsync_s", median(samples), "s", true, "median of 30 in the run directory"};
}

std::string host_fingerprint_json() {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) key.pop_back();
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) flags = " " + value + " ";
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::ostringstream out;
  out << "{\"nproc\": " << affinity
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << json_string(model) << ", \"isa\": {";
  const char* isa[] = {"avx2", "fma", "avx512f", "sha_ni"};
  for (std::size_t i = 0; i < 4; ++i) {
    const bool has = flags.find(std::string(" ") + isa[i] + " ") != std::string::npos;
    out << (i ? ", " : "") << "\"" << isa[i] << "\": " << (has ? "true" : "false");
  }
  out << "}, \"compiler\": " << json_string(__VERSION__)
      << ", \"build_type\": " << json_string(FLBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << json_string(FLBENCH_CXX_FLAGS)
      << ", \"optimized\": " << (optimized_build() ? "true" : "false") << "}";
  return out.str();
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace flbench
